package compress

// LightDecoder is implemented by codecs whose decompression runs at
// memory-bandwidth-class speed (byte copies, table lookups — no entropy
// modeling worth parallelizing). It is only a hint for clients: positd
// publishes it as light_decoder on GET /v1/codecs. No engine path reads
// it; the parallel engine falls back to the serial path for every codec
// at workers == 1 or GOMAXPROCS == 1.
type LightDecoder interface {
	// DecodeIsLight reports whether decompression runs at
	// memory-bandwidth-class speed.
	DecodeIsLight() bool
}

// DecodeIsLight reports whether c advertises a light decode path.
func DecodeIsLight(c Codec) bool {
	ld, ok := c.(LightDecoder)
	return ok && ld.DecodeIsLight()
}
