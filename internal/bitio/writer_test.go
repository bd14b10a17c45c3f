package bitio

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"
)

// bitwiseWriter is the reference Writer is checked against: it appends one
// bit at a time, bit i of the stream going to bit 7-(i&7) of byte i>>3.
type bitwiseWriter struct {
	buf  []byte
	nbit int // bits written, padding included
}

func (r *bitwiseWriter) writeBit(b uint64) {
	if r.nbit%8 == 0 {
		r.buf = append(r.buf, 0)
	}
	r.buf[len(r.buf)-1] |= byte(b&1) << (7 - r.nbit%8)
	r.nbit++
}

func (r *bitwiseWriter) writeBits(v uint64, n uint) {
	for i := n; i > 0; i-- {
		r.writeBit(v >> (i - 1))
	}
}

func (r *bitwiseWriter) align() { r.nbit = 8 * len(r.buf) }

// runWriterOps decodes ops into a sequence of Writer calls, makes each on a
// Writer and on the bitwise reference, and fails at the first Bytes that
// differs. Each op is a byte selecting the call followed by its arguments;
// a sequence that runs out of argument bytes ends there.
func runWriterOps(t *testing.T, ops []byte) {
	t.Helper()
	w := NewWriter(0)
	var ref bitwiseWriter
	next := func(n int) ([]byte, bool) {
		if len(ops) < n {
			return nil, false
		}
		p := ops[:n]
		ops = ops[n:]
		return p, true
	}
	check := func(step int) {
		ref.align()
		if got := w.Bytes(); !bytes.Equal(got, ref.buf) {
			t.Fatalf("op %d: Writer wrote %x, bitwise %x", step, got, ref.buf)
		}
	}
	for step := 0; len(ops) > 0; step++ {
		op, _ := next(1)
		switch op[0] % 6 {
		case 0: // WriteBits, with junk above bit n
			arg, ok := next(9)
			if !ok {
				return
			}
			n := uint(arg[0]) % 65
			var v uint64
			for _, b := range arg[1:] {
				v = v<<8 | uint64(b)
			}
			w.WriteBits(v, n)
			ref.writeBits(v, n)
		case 1: // WriteBit, with junk above bit 0
			arg, ok := next(1)
			if !ok {
				return
			}
			w.WriteBit(uint(arg[0]))
			ref.writeBit(uint64(arg[0]))
		case 2: // WriteBytes, aligned or not as the stream stands
			arg, ok := next(1)
			if !ok {
				return
			}
			p, ok := next(int(arg[0]) % 24)
			if !ok {
				return
			}
			w.WriteBytes(p)
			for _, b := range p {
				ref.writeBits(uint64(b), 8)
			}
		case 3:
			w.Align()
			ref.align()
		case 4: // Bytes in mid-stream; writes go on after it
			check(step)
		case 5:
			w.Reset()
			ref = bitwiseWriter{}
		}
	}
	check(-1)
}

// TestWriterMatchesBitwise drives Writer and the bitwise reference through
// random call sequences: WriteBits of every width 0-64 with junk above the
// width, WriteBit, WriteBytes both aligned and unaligned, Align, Bytes in
// mid-stream followed by more writes, and Reset.
func TestWriterMatchesBitwise(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for range 2000 {
		var ops []byte
		for range rng.Intn(200) {
			switch r := rng.Intn(20); {
			case r < 12:
				ops = append(ops, 0, byte(rng.Intn(65)))
				ops = binary.BigEndian.AppendUint64(ops, rng.Uint64())
			case r < 15:
				ops = append(ops, 1, byte(rng.Intn(256)))
			case r < 17:
				p := make([]byte, rng.Intn(24))
				rng.Read(p)
				ops = append(append(ops, 2, byte(len(p))), p...)
			default:
				ops = append(ops, byte(r-14)) // Align, Bytes or Reset
			}
		}
		runWriterOps(t, ops)
	}
}

// FuzzWriter is TestWriterMatchesBitwise on arbitrary call sequences.
func FuzzWriter(f *testing.F) {
	f.Add([]byte{0, 64, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 4, 1, 3})
	f.Add([]byte{1, 1, 2, 5, 1, 2, 3, 4, 5, 4, 0, 33, 1, 2, 3, 4, 5, 6, 7, 8, 5, 1, 0})
	f.Add([]byte{0, 31, 9, 9, 9, 9, 9, 9, 9, 9, 0, 32, 7, 7, 7, 7, 7, 7, 7, 7, 2, 3, 0xAB, 0xCD, 0xEF})
	f.Fuzz(runWriterOps)
}
