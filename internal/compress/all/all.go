// Package all assembles the full codec registry used by the study: the five
// general-purpose compressor classes in the order the paper's figures list
// them, followed by the repo's own predictive float codecs (fpc32 and
// fpc-posit, the FCM/DFCM family). The LC pipeline compressor is added
// separately by the study engine because its pipeline is chosen per
// encoding.
package all

import (
	"fmt"

	"positbench/internal/compress"
	"positbench/internal/compress/bzip2c"
	"positbench/internal/compress/gzipc"
	"positbench/internal/compress/lz4c"
	"positbench/internal/compress/xzc"
	"positbench/internal/compress/zstdc"
	"positbench/internal/container"
	"positbench/internal/predict"
)

// Codecs returns fresh instances of the registry codecs: the paper's five
// general-purpose classes at maximum-effort settings (the paper's --best
// flags) plus the predictive family. Every codec is wrapped in the framed
// container so its output is self-identifying and its decode path is
// checksummed and resource-limited.
func Codecs() []compress.Codec {
	return wrap(Raw())
}

// Raw returns the registry codecs without the container frame, for callers
// that need the bare compressed streams (e.g. byte-exact interop tests).
func Raw() []compress.Codec {
	return []compress.Codec{
		bzip2c.New(),
		gzipc.New(),
		lz4c.New(),
		xzc.New(),
		zstdc.New(),
		predict.New(),
		predict.NewPosit(),
	}
}

func wrap(cs []compress.Codec) []compress.Codec {
	out := make([]compress.Codec, len(cs))
	for i, c := range cs {
		out[i] = container.Wrap(c)
	}
	return out
}

// Get returns the named codec, or an error listing the valid names.
func Get(name string) (compress.Codec, error) {
	for _, c := range Codecs() {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("compress: unknown codec %q (have %v)", name, Names())
}

// Names lists the registry's codec names in table order.
func Names() []string {
	cs := Codecs()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name()
	}
	return names
}

// Infos returns Table 1 metadata for every codec.
func Infos() []compress.Info {
	cs := Codecs()
	infos := make([]compress.Info, 0, len(cs))
	for _, c := range cs {
		if d, ok := c.(compress.Describer); ok {
			infos = append(infos, d.Info())
		} else {
			infos = append(infos, compress.Info{Name: c.Name()})
		}
	}
	return infos
}
