package compress_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
)

// TestSerialFallbackPolicyEveryRegistryCodec pins the engine's fallback
// decision for every codec in the registry, both directions: the serial
// path engages exactly when workers == 1 or only one CPU is available,
// regardless of codec weight. No codec gets a bespoke policy — the
// measurements recorded in DESIGN §15 showed parallel decode at
// 0.90-0.98x of serial for bzip2/fpc32/fpc-posit at workers=4 on one
// core, and the fix is uniform, so the pin is too.
func TestSerialFallbackPolicyEveryRegistryCodec(t *testing.T) {
	data := make([]byte, 8<<10)
	for i := range data {
		data[i] = byte(i >> 3)
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	for _, c := range all.Raw() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			var enc bytes.Buffer
			w := compress.NewWriter(c, &enc, 2048)
			if _, err := w.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			stream := enc.Bytes()

			cases := []struct {
				name       string
				gomaxprocs int
				workers    int
				fallback   bool
			}{
				{"workers=1 multi-cpu", 2, 1, true},
				{"workers=4 multi-cpu", 2, 4, false},
				{"workers=0 multi-cpu", 2, 0, false},
				{"workers=1 one-cpu", 1, 1, true},
				{"workers=4 one-cpu", 1, 4, true},
				{"workers=0 one-cpu", 1, 0, true},
			}
			for _, tc := range cases {
				runtime.GOMAXPROCS(tc.gomaxprocs)

				pw := compress.NewParallelWriter(c, io.Discard, 2048, tc.workers)
				if got := pw.SerialFallback(); got != tc.fallback {
					t.Errorf("%s: writer fallback = %v, want %v", tc.name, got, tc.fallback)
				}
				pw.Close()

				pr := compress.NewParallelReader(c, bytes.NewReader(stream), tc.workers)
				if got := pr.SerialFallback(); got != tc.fallback {
					t.Errorf("%s: reader fallback = %v, want %v", tc.name, got, tc.fallback)
				}
				pr.Close()
			}
			runtime.GOMAXPROCS(2)
		})
	}
}
