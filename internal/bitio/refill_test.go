package bitio

import (
	"math/rand"
	"testing"
)

// refTake is the naive MSB-first bit extractor the word-refill Reader is
// checked against: bit i of the stream is bit 7-(i&7) of byte i>>3.
func refTake(buf []byte, pos *int, n uint) (uint64, bool) {
	if *pos+int(n) > len(buf)*8 {
		return 0, false
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		b := buf[*pos>>3] >> (7 - uint(*pos&7)) & 1
		v = v<<1 | uint64(b)
		*pos++
	}
	return v, true
}

// TestRefillBoundaries drives the reader over inputs of every length 0..17
// (covering empty, sub-word, exactly-one-word, and word-straddling tails)
// with read widths chosen to land on and around the 64-bit refill edge.
func TestRefillBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	widths := []uint{1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 56, 57, 63, 64}
	for size := 0; size <= 17; size++ {
		buf := make([]byte, size)
		rng.Read(buf)
		for _, first := range widths {
			r := NewReader(buf)
			refPos := 0
			// A leading read of `first` bits desynchronizes the lookahead
			// from the byte grid so later reads straddle the word edge.
			wantV, ok := refTake(buf, &refPos, first)
			gotV, err := r.ReadBits(first)
			if ok != (err == nil) || (ok && gotV != wantV) {
				t.Fatalf("size=%d first=%d: got %x,%v want %x,%v", size, first, gotV, err, wantV, ok)
			}
			if !ok {
				continue // a failed read drains the stream; nothing left to compare
			}
			for {
				n := widths[rng.Intn(len(widths))]
				wantV, ok := refTake(buf, &refPos, n)
				gotV, err := r.ReadBits(n)
				if ok != (err == nil) || (ok && gotV != wantV) {
					t.Fatalf("size=%d n=%d at bit %d: got %x,%v want %x,%v", size, n, refPos, gotV, err, wantV, ok)
				}
				if !ok {
					break
				}
			}
		}
	}
}

// TestPeekConsume checks the table-lookup primitives: peeks do not consume,
// short streams zero-pad, and Consume past the end fails like ReadBits.
func TestPeekConsume(t *testing.T) {
	buf := []byte{0b1011_0110, 0b0101_0101, 0xFF}
	r := NewReader(buf)
	if v := r.PeekBits(4); v != 0b1011 {
		t.Fatalf("peek4 = %b", v)
	}
	if v := r.PeekBits(12); v != 0b1011_0110_0101 {
		t.Fatalf("peek12 = %b", v)
	}
	if err := r.Consume(4); err != nil {
		t.Fatal(err)
	}
	if v := r.PeekBits(8); v != 0b0110_0101 {
		t.Fatalf("after consume, peek8 = %b", v)
	}
	if err := r.Consume(16); err != nil {
		t.Fatal(err)
	}
	if got := r.Remaining(); got != 4 {
		t.Fatalf("Remaining = %d want 4", got)
	}
	// 4 bits (all ones) left: peek of 8 must zero-pad on the right.
	if v := r.PeekBits(8); v != 0b1111_0000 {
		t.Fatalf("tail peek8 = %08b", v)
	}
	if err := r.Consume(8); err != ErrUnexpectedEOF {
		t.Fatalf("consume past end: %v", err)
	}
}

// TestPeekBeyondEmpty checks zero-padding on a stream with nothing left at all.
func TestPeekBeyondEmpty(t *testing.T) {
	r := NewReader(nil)
	if v := r.PeekBits(56); v != 0 {
		t.Fatalf("empty peek = %x", v)
	}
	if err := r.Consume(1); err != ErrUnexpectedEOF {
		t.Fatalf("empty consume: %v", err)
	}
}

func TestReaderReset(t *testing.T) {
	r := NewReader([]byte{0xAA})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	r.Reset([]byte{0x55, 0x55})
	if v, err := r.ReadBits(16); err != nil || v != 0x5555 {
		t.Fatalf("after reset: %x, %v", v, err)
	}
}

// FuzzReaderDifferential replays a fuzz-chosen schedule of reads, peeks,
// consumes and single-bit reads against the naive reference reader.
func FuzzReaderDifferential(f *testing.F) {
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF}, []byte{3, 8, 64, 1})
	f.Add(make([]byte, 17), []byte{56, 57, 7, 9})
	f.Add([]byte{0xFF}, []byte{0, 1, 200})
	f.Fuzz(func(t *testing.T, data []byte, schedule []byte) {
		if len(data) > 1<<16 || len(schedule) > 1<<10 {
			t.Skip()
		}
		r := NewReader(data)
		refPos := 0
		for i, op := range schedule {
			n := uint(op & 63)
			switch op >> 6 {
			case 0: // ReadBits
				wantV, ok := refTake(data, &refPos, n)
				gotV, err := r.ReadBits(n)
				if ok != (err == nil) || (ok && gotV != wantV) {
					t.Fatalf("op %d ReadBits(%d): got %x,%v want %x,%v", i, n, gotV, err, wantV, ok)
				}
				if !ok {
					// A failed read drains whatever was left (the historical
					// partial-consumption semantics); resync the reference.
					refPos = len(data) * 8
				}
			case 1: // PeekBits then Consume
				if n > 56 {
					n = 56
				}
				save := refPos
				wantV, ok := refTake(data, &refPos, n)
				refPos = save
				got := r.PeekBits(n)
				if ok && got != wantV {
					t.Fatalf("op %d PeekBits(%d): got %x want %x", i, n, got, wantV)
				}
				wantV, ok = refTake(data, &refPos, n)
				if err := r.Consume(n); ok != (err == nil) {
					t.Fatalf("op %d Consume(%d): err=%v ok=%v", i, n, err, ok)
				}
				if !ok {
					refPos = len(data) * 8
				}
			case 2, 3: // ReadBit
				wantV, ok := refTake(data, &refPos, 1)
				gotV, err := r.ReadBit()
				if ok != (err == nil) || (ok && uint64(gotV) != wantV) {
					t.Fatalf("op %d ReadBit: got %d,%v want %d,%v", i, gotV, err, wantV, ok)
				}
			}
			if want := len(data)*8 - refPos; r.Remaining() != want {
				t.Fatalf("op %d: Remaining = %d want %d", i, r.Remaining(), want)
			}
		}
	})
}

// TestReadBitsNoAllocs locks in the zero-allocation steady state of the
// fast path (satellite allocation-regression gate).
func TestReadBitsNoAllocs(t *testing.T) {
	buf := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(buf)
	r := NewReader(buf)
	n := testing.AllocsPerRun(100, func() {
		r.Reset(buf)
		for {
			if _, err := r.ReadBits(13); err != nil {
				break
			}
		}
	})
	if n != 0 {
		t.Fatalf("ReadBits allocates %v per run, want 0", n)
	}
}

func BenchmarkReadBits(b *testing.B) {
	buf := make([]byte, 1<<16)
	rand.New(rand.NewSource(6)).Read(buf)
	r := NewReader(buf)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		r.Reset(buf)
		for {
			if _, err := r.ReadBits(11); err != nil {
				break
			}
		}
	}
}
