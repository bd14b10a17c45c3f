package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	w := NewWriter(16)
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 5)
	w.WriteBits(0xDEADBEEF, 32)
	w.WriteBit(1)
	b := w.Bytes()

	r := NewReader(b)
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("got %b want 101", v)
	}
	if v, _ := r.ReadBits(8); v != 0xFF {
		t.Fatalf("got %x want ff", v)
	}
	if v, _ := r.ReadBits(5); v != 0 {
		t.Fatalf("got %x want 0", v)
	}
	if v, _ := r.ReadBits(32); v != 0xDEADBEEF {
		t.Fatalf("got %x want deadbeef", v)
	}
	if v, _ := r.ReadBit(); v != 1 {
		t.Fatalf("got %d want 1", v)
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xFFFF, 4) // only low 4 bits should be kept
	w.WriteBits(0, 4)
	b := w.Bytes()
	if b[0] != 0xF0 {
		t.Fatalf("got %x want f0", b[0])
	}
}

func TestWriteBits64(t *testing.T) {
	w := NewWriter(8)
	const v = uint64(0x0123456789ABCDEF)
	w.WriteBits(v, 64)
	r := NewReader(w.Bytes())
	got, err := r.ReadBits(64)
	if err != nil || got != v {
		t.Fatalf("got %x,%v want %x", got, err, v)
	}
}

func TestAlign(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(1, 1)
	w.Align()
	w.WriteBits(0xAB, 8)
	b := w.Bytes()
	if len(b) != 2 || b[0] != 0x80 || b[1] != 0xAB {
		t.Fatalf("got %x", b)
	}
	r := NewReader(b)
	if v, _ := r.ReadBit(); v != 1 {
		t.Fatal("first bit")
	}
	if pad, _ := r.ReadBits(7); pad != 0 {
		t.Fatalf("padding %x, want zero bits", pad)
	}
	if v, _ := r.ReadByte(); v != 0xAB {
		t.Fatalf("got %x want ab", v)
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
	if _, err := r.ReadBits(4); err != ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestWriteBytesUnaligned(t *testing.T) {
	w := NewWriter(8)
	w.WriteBit(1)
	w.WriteBytes([]byte{0x0F, 0xF0})
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBit(); v != 1 {
		t.Fatal("bit")
	}
	if v, _ := r.ReadByte(); v != 0x0F {
		t.Fatalf("got %x", v)
	}
	if v, _ := r.ReadByte(); v != 0xF0 {
		t.Fatalf("got %x", v)
	}
}

func TestRoundtripQuick(t *testing.T) {
	f := func(vals []uint64, widths []uint8) bool {
		if len(vals) > len(widths) {
			vals = vals[:len(widths)]
		} else {
			widths = widths[:len(vals)]
		}
		w := NewWriter(64)
		ws := make([]uint, len(vals))
		for i, v := range vals {
			n := uint(widths[i]%64) + 1
			ws[i] = n
			w.WriteBits(v, n)
		}
		r := NewReader(w.Bytes())
		for i, v := range vals {
			n := ws[i]
			want := v
			if n < 64 {
				want &= (1 << n) - 1
			}
			got, err := r.ReadBits(n)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVarints(t *testing.T) {
	var buf []byte
	vals := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1}
	for _, v := range vals {
		buf = PutUvarint(buf, v)
	}
	for _, want := range vals {
		v, n, err := Uvarint(buf)
		if err != nil || v != want {
			t.Fatalf("got %d,%v want %d", v, err, want)
		}
		buf = buf[n:]
	}
	if _, _, err := Uvarint(nil); err == nil {
		t.Fatal("want error on empty")
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xFF, 8)
	w.Reset()
	w.WriteBits(0xA, 4)
	if !bytes.Equal(w.Bytes(), []byte{0xA0}) {
		t.Fatalf("got %x", w.Bytes())
	}
}

func TestRandomBitStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := NewWriter(1 << 12)
	type item struct {
		v uint64
		n uint
	}
	var items []item
	for i := 0; i < 5000; i++ {
		n := uint(rng.Intn(64)) + 1
		v := rng.Uint64()
		if n < 64 {
			v &= (1 << n) - 1
		}
		items = append(items, item{v, n})
		w.WriteBits(v, n)
	}
	r := NewReader(w.Bytes())
	for i, it := range items {
		got, err := r.ReadBits(it.n)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if got != it.v {
			t.Fatalf("item %d: got %x want %x (n=%d)", i, got, it.v, it.n)
		}
	}
}
