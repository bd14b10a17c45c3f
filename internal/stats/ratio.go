package stats

// RatioCell is one file x codec measurement in a RatioReport. Exactly one
// of Ratio/Error is meaningful: a failed cell carries the error string and
// a zero ratio so downstream tooling can both see the failure and skip the
// cell in aggregates.
type RatioCell struct {
	Codec  string  `json:"codec"`
	Ratio  float64 `json:"ratio,omitempty"`
	Detail string  `json:"detail,omitempty"` // e.g. the winning LC pipeline
	Error  string  `json:"error,omitempty"`
}

// RatioFile is one input file's row of codec cells.
type RatioFile struct {
	File      string      `json:"file"`
	SizeBytes int         `json:"size_bytes"`
	Cells     []RatioCell `json:"cells"`
}

// RatioReport is the machine-readable form of the compressbench table:
// per-file/per-codec compression ratios plus geometric means, the JSON
// counterpart of the fixed-width text table.
type RatioReport struct {
	Codecs   []string           `json:"codecs"`
	Files    []RatioFile        `json:"files"`
	GeoMeans map[string]float64 `json:"geomeans"`
	Errors   int                `json:"errors"`
}

// Finish computes GeoMeans over the error-free cells and the total error
// count. Call it once after all cells are recorded.
func (r *RatioReport) Finish() {
	byCodec := map[string][]float64{}
	r.Errors = 0
	for _, f := range r.Files {
		for _, c := range f.Cells {
			if c.Error != "" {
				r.Errors++
				continue
			}
			byCodec[c.Codec] = append(byCodec[c.Codec], c.Ratio)
		}
	}
	r.GeoMeans = make(map[string]float64, len(byCodec))
	for codec, ratios := range byCodec {
		r.GeoMeans[codec] = GeoMean(ratios)
	}
}
