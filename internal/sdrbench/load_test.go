package sdrbench

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"positbench/internal/posit"
)

func TestLoadHappyPath(t *testing.T) {
	want := Inputs()[0].Generate(257)
	data := posit.EncodeFloat32LE(want)
	got, err := Load(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("value %d diverged", i)
		}
	}
}

func TestLoadEmptyInput(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil), 0); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("empty stream: %v, want ErrEmptyInput", err)
	}
}

func TestLoadOddByteLength(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 4*100 + 1, 4*100 + 3} {
		data := make([]byte, n)
		if _, err := Load(bytes.NewReader(data), 0); !errors.Is(err, ErrMisaligned) {
			t.Fatalf("%d bytes: %v, want ErrMisaligned", n, err)
		}
	}
}

func TestLoadTruncatedFile(t *testing.T) {
	// A real stream cut mid-value: 10 floats minus 2 bytes.
	full := posit.EncodeFloat32LE(Inputs()[1].Generate(10))
	if _, err := Load(bytes.NewReader(full[:len(full)-2]), 0); !errors.Is(err, ErrMisaligned) {
		t.Fatalf("truncated file: %v, want ErrMisaligned", err)
	}
	// Truncation at a value boundary is undetectable from length alone and
	// must load the remaining whole values.
	got, err := Load(bytes.NewReader(full[:len(full)-4]), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("loaded %d values, want 9", len(got))
	}
}

func TestLoadSizeLimit(t *testing.T) {
	data := posit.EncodeFloat32LE(make([]float32, 100)) // 400 bytes
	if _, err := Load(bytes.NewReader(data), 399); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over limit: %v, want ErrTooLarge", err)
	}
	got, err := Load(bytes.NewReader(data), 400)
	if err != nil {
		t.Fatalf("exactly at limit: %v", err)
	}
	if len(got) != 100 {
		t.Fatalf("loaded %d values", len(got))
	}
}
