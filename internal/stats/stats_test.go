package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); g != 4 {
		t.Fatalf("GeoMean(2,8) = %g", g)
	}
	if g := GeoMean([]float64{3}); math.Abs(g-3) > 1e-9 {
		t.Fatalf("single: %g", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("empty: %g", g)
	}
	if g := GeoMean([]float64{1, -1}); g != 0 {
		t.Fatalf("negative input: %g", g)
	}
	if g := GeoMean([]float64{1, 0}); g != 0 {
		t.Fatalf("zero input: %g", g)
	}
}

func TestGeoMeanDampensOutliers(t *testing.T) {
	// The paper's reason for geomean: one huge ratio shouldn't dominate.
	arith := (1 + 1 + 1 + 100) / 4.0
	geo := GeoMean([]float64{1, 1, 1, 100})
	if geo >= arith {
		t.Fatalf("geomean %g should be below mean %g", geo, arith)
	}
	if geo > 4 {
		t.Fatalf("geomean %g too sensitive to outlier", geo)
	}
}

func TestGeoMeanQuick(t *testing.T) {
	f := func(xs []float64) bool {
		for i := range xs {
			xs[i] = math.Abs(xs[i])
			if !(xs[i] > 1e-300 && xs[i] < 1e300) {
				xs[i] = 1
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		mn, mx := xs[0], xs[0]
		for _, x := range xs {
			mn = math.Min(mn, x)
			mx = math.Max(mx, x)
		}
		return g >= mn*(1-1e-6) && g <= mx*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPctDelta(t *testing.T) {
	if d := PctDelta(2, 2.1); math.Abs(d-5) > 1e-9 {
		t.Fatalf("delta = %g", d)
	}
	if d := PctDelta(2, 1.9); math.Abs(d+5) > 1e-9 {
		t.Fatalf("delta = %g", d)
	}
	if d := PctDelta(0, 1); d != 0 {
		t.Fatalf("zero base: %g", d)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("A", "Bee")
	tb.AddRow("x", 1.5)
	tb.AddRow("longer-cell", "v")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %q", lines)
	}
	if !strings.Contains(lines[0], "A") || !strings.Contains(lines[0], "Bee") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(out, "1.500") {
		t.Fatalf("float formatting: %s", out)
	}
	// All rows align to the same width.
	if len(lines[2]) < len("longer-cell") {
		t.Fatal("width not expanded")
	}
}

func TestBar(t *testing.T) {
	s := Bar("xz", 2.0, 4.0, 10)
	if !strings.Contains(s, "#####") || strings.Contains(s, "######") {
		t.Fatalf("bar: %q", s)
	}
	if !strings.Contains(s, "2.000") {
		t.Fatalf("value missing: %q", s)
	}
	// Value above max clamps.
	if s := Bar("a", 10, 1, 5); !strings.Contains(s, "#####") {
		t.Fatalf("clamp: %q", s)
	}
	if s := Bar("a", 1, 0, 0); !strings.Contains(s, "1.000") {
		t.Fatalf("zero max: %q", s)
	}
}
