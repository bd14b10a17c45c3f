package stats

import (
	"encoding/json"
	"math"
	"testing"
)

func TestRatioReportFinish(t *testing.T) {
	r := &RatioReport{
		Codecs: []string{"xz", "zstd"},
		Files: []RatioFile{
			{File: "a.f32", SizeBytes: 100, Cells: []RatioCell{
				{Codec: "xz", Ratio: 2},
				{Codec: "zstd", Ratio: 8},
			}},
			{File: "b.f32", SizeBytes: 200, Cells: []RatioCell{
				{Codec: "xz", Ratio: 8},
				{Codec: "zstd", Error: "boom"},
			}},
		},
	}
	r.Finish()
	if r.Errors != 1 {
		t.Fatalf("errors = %d, want 1", r.Errors)
	}
	if got := r.GeoMeans["xz"]; math.Abs(got-4) > 1e-12 {
		t.Fatalf("xz geomean = %g, want 4", got)
	}
	// The errored cell is excluded, leaving the single good zstd ratio.
	if got := r.GeoMeans["zstd"]; math.Abs(got-8) > 1e-12 {
		t.Fatalf("zstd geomean = %g, want 8", got)
	}
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back RatioReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Errors != 1 || len(back.Files) != 2 {
		t.Fatalf("roundtrip lost data: %+v", back)
	}
}
