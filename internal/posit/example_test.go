package posit_test

import (
	"fmt"

	"positbench/internal/posit"
)

func ExampleConfig_FromFloat64() {
	cfg := posit.Posit32e3
	p := cfg.FromFloat64(1.5)
	fmt.Printf("%#x -> %g\n", p, cfg.ToFloat64(p))
	// Output: 0x42000000 -> 1.5
}

func ExampleConfig_RoundtripStats() {
	cfg := posit.Posit32e3
	stats := cfg.RoundtripStats([]float32{1, 2.5, -0.125})
	fmt.Printf("%.0f%% exact\n", stats.PrecisePct())
	// Output: 100% exact
}
