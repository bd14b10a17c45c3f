package lc

import (
	"fmt"
	"strings"

	"positbench/internal/compress"
)

// PipelineDepth is the number of stages the study searches over, matching
// the paper's 3-stage pipelines.
const PipelineDepth = 3

// Pipeline is an ordered composition of components; stage outputs feed the
// next stage, and the final stage's output is the compressed data.
type Pipeline struct {
	Stages []Component
}

// NewPipeline builds a pipeline from component names, e.g.
// NewPipeline("DIFFMS", "RARE", "RAZE").
func NewPipeline(names ...string) (Pipeline, error) {
	p := Pipeline{Stages: make([]Component, len(names))}
	for i, nm := range names {
		c, err := ByName(nm)
		if err != nil {
			return Pipeline{}, err
		}
		p.Stages[i] = c
	}
	return p, nil
}

// String renders "DIFFMS|RARE|RAZE".
func (p Pipeline) String() string {
	names := make([]string, len(p.Stages))
	for i, s := range p.Stages {
		names[i] = s.Name()
	}
	return strings.Join(names, "|")
}

// Apply runs all forward stages.
func (p Pipeline) Apply(src []byte) ([]byte, error) {
	cur := src
	for _, s := range p.Stages {
		var err error
		cur, err = s.Forward(cur)
		if err != nil {
			return nil, fmt.Errorf("lc: stage %s: %w", s.Name(), err)
		}
	}
	return cur, nil
}

// Invert runs all inverse stages in reverse order with no output bound;
// Codec.DecompressLimits bounds untrusted input.
func (p Pipeline) Invert(comp []byte) ([]byte, error) {
	return p.invert(comp, 0)
}

// invert runs all inverse stages in reverse order, holding every
// intermediate (and the final output) under maxOut bytes (maxOut <= 0 means
// unbounded). Stages that read a declared size check the bound before they
// allocate; every intermediate is checked again after its stage runs.
func (p Pipeline) invert(comp []byte, maxOut int) ([]byte, error) {
	cur := comp
	for i := len(p.Stages) - 1; i >= 0; i-- {
		s := p.Stages[i]
		var err error
		cur, err = s.Inverse(cur, maxOut)
		if err != nil {
			return nil, fmt.Errorf("lc: inverse stage %s: %w", s.Name(), err)
		}
		if maxOut > 0 && len(cur) > maxOut {
			return nil, compress.Errorf(compress.ErrLimitExceeded, "lc: stage %s output %d exceeds cap %d", s.Name(), len(cur), maxOut)
		}
	}
	return cur, nil
}

// Codec wraps a pipeline as a self-describing compress.Codec: the component
// IDs travel in the container so any LC-compressed buffer decompresses
// without out-of-band pipeline knowledge.
type Codec struct {
	pipe Pipeline
}

// NewCodec wraps p.
func NewCodec(p Pipeline) *Codec { return &Codec{pipe: p} }

// Name implements compress.Codec.
func (c *Codec) Name() string { return "lc" }

// Info implements compress.Describer.
func (c *Codec) Info() compress.Info {
	return compress.Info{Name: "lc", Version: c.pipe.String(), Source: "LC framework pipeline (synthesized)"}
}

// Compress implements compress.Codec. Layout: one byte per stage (component
// ID), then the final stage output.
func (c *Codec) Compress(src []byte) ([]byte, error) {
	lib := Components()
	out := make([]byte, 0, len(src)/2+8)
	out = append(out, byte(len(c.pipe.Stages)))
	for _, s := range c.pipe.Stages {
		id := -1
		for i, l := range lib {
			if l.Name() == s.Name() {
				id = i
				break
			}
		}
		if id < 0 {
			return nil, fmt.Errorf("lc: component %s not in library", s.Name())
		}
		out = append(out, byte(id))
	}
	body, err := c.pipe.Apply(src)
	if err != nil {
		return nil, err
	}
	return append(out, body...), nil
}

// Decompress implements compress.Codec with default decode limits.
func (c *Codec) Decompress(comp []byte) ([]byte, error) {
	return c.DecompressLimits(comp, compress.DecodeLimits{})
}

// DecompressLimits implements compress.Limited: the self-describing header
// is validated and every inverse stage runs under the resolved output cap.
func (c *Codec) DecompressLimits(comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	if len(comp) < 1 {
		return nil, compress.Errorf(compress.ErrTruncated, "lc: empty container")
	}
	nStages := int(comp[0])
	if len(comp) < 1+nStages {
		return nil, compress.Errorf(compress.ErrTruncated, "lc: truncated header")
	}
	lib := Components()
	p := Pipeline{Stages: make([]Component, nStages)}
	for i := 0; i < nStages; i++ {
		id := int(comp[1+i])
		if id >= len(lib) {
			return nil, compress.Errorf(compress.ErrCorrupt, "lc: bad component id %d", id)
		}
		p.Stages[i] = lib[id]
	}
	maxOut := lim.OutputCap(len(comp))
	outCap := int(^uint(0) >> 1)
	if maxOut < int64(outCap) {
		outCap = int(maxOut)
	}
	return p.invert(comp[1+nStages:], outCap)
}

var _ compress.Codec = (*Codec)(nil)
var _ compress.Describer = (*Codec)(nil)
var _ compress.Limited = (*Codec)(nil)
