package all

import (
	"positbench/internal/compress"
	"positbench/internal/compress/codectest"
	"testing"
)

func TestRegistry(t *testing.T) {
	cs := Codecs()
	if len(cs) != 7 {
		t.Fatalf("want the paper's 5 codecs plus the predictive pair, got %d", len(cs))
	}
	want := []string{"bzip2", "gzip", "lz4", "xz", "zstd", "fpc32", "fpc-posit"}
	names := Names()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("missing codec %q", w)
		}
	}
}

func TestGet(t *testing.T) {
	for _, n := range Names() {
		c, err := Get(n)
		if err != nil || c.Name() != n {
			t.Errorf("Get(%s): %v", n, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestInfos(t *testing.T) {
	infos := Infos()
	if len(infos) != 7 {
		t.Fatalf("infos: %d", len(infos))
	}
	for _, info := range infos {
		if info.Name == "" || info.Version == "" || info.Source == "" {
			t.Errorf("incomplete info: %+v", info)
		}
	}
}

func TestFreshInstances(t *testing.T) {
	// Codecs() must return fresh instances (no shared state across callers).
	a, b := Codecs(), Codecs()
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("codec %d shared between calls", i)
		}
	}
}

// The light-decoder hint is published as light_decoder on /v1/codecs (no
// engine path reads it), so its per-codec policy is part of the registry
// contract: byte-copy/table-lookup decoders are light, entropy-heavy ones
// are not, and the container frame forwards the inner codec's answer.
func TestLightDecoderPolicy(t *testing.T) {
	want := map[string]bool{
		"bzip2": false, "gzip": false, "xz": false,
		"lz4": true, "zstd": true, "fpc32": true, "fpc-posit": true,
	}
	for _, c := range Codecs() {
		if got := compress.DecodeIsLight(c); got != want[c.Name()] {
			t.Errorf("framed %s: DecodeIsLight = %v, want %v", c.Name(), got, want[c.Name()])
		}
	}
}

// TestConformanceCoversRegistry is the registry meta-test: every codec in
// the registry runs the full codectest suite, framed exactly as the study
// uses it, and afterwards the codectest.Exercised record must contain every
// registered name. Adding a codec to Raw() without conformance coverage
// fails here — the wall cannot be skipped silently. (The subtests are not
// parallel on purpose: they must complete before the coverage check.)
func TestConformanceCoversRegistry(t *testing.T) {
	for _, c := range Codecs() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			codectest.Run(t, c)
		})
	}
	ex := codectest.Exercised()
	for _, name := range Names() {
		if !ex[name] {
			t.Errorf("registry codec %q was never exercised by codectest.Run", name)
		}
	}
}

func TestStreamEquivalence(t *testing.T) {
	// The serial-vs-parallel equivalence contract must hold for every
	// registry codec, framed exactly as the study runs them.
	for _, c := range Codecs() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			codectest.StreamEquivalence(t, c)
		})
	}
}

func TestFaultInjection(t *testing.T) {
	// Every registry codec is framed, so the harness's strongest contract
	// applies: all corruption is detected, nothing panics, nothing
	// allocates past the decode limits.
	for _, c := range Codecs() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			codectest.FaultInjection(t, c)
		})
	}
}
