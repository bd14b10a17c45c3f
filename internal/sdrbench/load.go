package sdrbench

import (
	"errors"
	"fmt"
	"io"

	"positbench/internal/posit"
)

// Loading real SDRBench inputs. The synthetic generators above stand in for
// the originals inside this repository, but the loader lets the study (and
// the serving path's /v1/analyze endpoint) run over genuine .f32 downloads:
// raw little-endian binary32 streams with no header, exactly as SDRBench
// distributes them.

// Loader error taxonomy, matchable with errors.Is.
var (
	// ErrEmptyInput marks a zero-length .f32 stream: SDRBench files are
	// never empty, so an empty read almost always means a failed download
	// or a wrong path, and silently analyzing zero values would hide that.
	ErrEmptyInput = errors.New("sdrbench: empty input")
	// ErrMisaligned marks a byte length that is not a multiple of 4: the
	// file is truncated mid-value or is not a .f32 stream at all.
	ErrMisaligned = errors.New("sdrbench: input length not a multiple of 4 (truncated or not .f32)")
	// ErrTooLarge marks an input over the caller's byte limit.
	ErrTooLarge = errors.New("sdrbench: input exceeds size limit")
)

// Load reads an entire .f32 stream from r, bounding the read at maxBytes
// (<= 0 selects no limit). It rejects empty and misaligned streams with
// typed errors rather than returning a silently-short value slice.
func Load(r io.Reader, maxBytes int64) ([]float32, error) {
	var data []byte
	var err error
	if maxBytes > 0 {
		// Read one byte past the cap so "exactly at the limit" and "over
		// it" are distinguishable.
		data, err = io.ReadAll(io.LimitReader(r, maxBytes+1))
		if err == nil && int64(len(data)) > maxBytes {
			return nil, fmt.Errorf("%w: more than %d bytes", ErrTooLarge, maxBytes)
		}
	} else {
		data, err = io.ReadAll(r)
	}
	if err != nil {
		return nil, fmt.Errorf("sdrbench: read input: %w", err)
	}
	return Parse(data)
}

// Parse decodes an in-memory .f32 byte stream with the same validation as
// Load.
func Parse(data []byte) ([]float32, error) {
	if len(data) == 0 {
		return nil, ErrEmptyInput
	}
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrMisaligned, len(data))
	}
	floats, err := posit.DecodeFloat32LE(data)
	if err != nil {
		return nil, err // unreachable given the alignment check, but honest
	}
	return floats, nil
}
