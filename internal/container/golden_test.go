package container

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"positbench/internal/compress"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden container fixtures")

// goldenCodec is a deterministic identity codec: fixtures built with it pin
// the container/trailer layout itself, independent of any real codec's
// output drifting.
var goldenCodec = Wrap(passthroughNamed{name: "stored"})

// goldenInput is the fixture payload: deterministic, multi-chunk with a
// partial tail (4.5 chunks at the 1 KiB fixture chunk size).
func goldenInput() []byte { return patternData(4<<10 + 512) }

const goldenChunk = 1 << 10

func goldenPath(name string) string { return filepath.Join("testdata", name) }

func writeOrLoad(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run with -update to create): %v", path, err)
	}
	return want
}

// TestGoldenV2Stream pins the v2 (indexed) stream byte for byte: any drift
// in the frame layout, the chunking, or the trailer encoding is a test
// failure, not a silent format change.
func TestGoldenV2Stream(t *testing.T) {
	stream, ix := buildIndexed(t, goldenCodec, goldenInput(), goldenChunk)
	want := writeOrLoad(t, "v2_stored_indexed.bin", stream)
	if !bytes.Equal(stream, want) {
		t.Fatalf("v2 indexed stream drifted from golden fixture (%d vs %d bytes)", len(stream), len(want))
	}

	// Pin the trailer layout structurally too, so a failure diagnoses
	// itself: footer fields first, then the records.
	foot := stream[len(stream)-trailerFooterLen:]
	if [4]byte(foot[13:17]) != TrailerMagic {
		t.Fatalf("trailer magic = %q", foot[13:17])
	}
	if foot[12] != TrailerVersion {
		t.Fatalf("trailer version = %d", foot[12])
	}
	bodyLen := binary.LittleEndian.Uint64(foot[4:12])
	body := stream[len(stream)-trailerFooterLen-int(bodyLen) : len(stream)-trailerFooterLen]
	if got := Checksum(body); got != binary.LittleEndian.Uint32(foot[0:4]) {
		t.Fatalf("trailer body CRC = %08x, footer says %08x", got, binary.LittleEndian.Uint32(foot[0:4]))
	}
	if count, _ := binary.Uvarint(body); count != 5 {
		t.Fatalf("trailer declares %d chunks, want 5", count)
	}
	parsed, err := ParseTrailer(bytes.NewReader(stream), int64(len(stream)))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.RawLen != ix.RawLen || len(parsed.Chunks) != len(ix.Chunks) {
		t.Fatalf("parsed index (%d chunks, %d raw) != built (%d, %d)",
			len(parsed.Chunks), parsed.RawLen, len(ix.Chunks), ix.RawLen)
	}
}

// TestGoldenV1ForwardCompat pins a trailer-less v1 stream and proves the
// forward-compat contract forever: v2 code decodes it sequentially and
// reports ErrNoTrailer — never a hard failure — when asked to seek.
func TestGoldenV1ForwardCompat(t *testing.T) {
	data := goldenInput()
	var sink bytes.Buffer
	w := compress.NewWriter(context.Background(), goldenCodec, &sink, goldenChunk, 1)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := writeOrLoad(t, "v1_stored.bin", sink.Bytes())
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("v1 stream drifted from golden fixture (%d vs %d bytes)", sink.Len(), len(want))
	}

	back, err := io.ReadAll(compress.NewReader(context.Background(), goldenCodec, bytes.NewReader(want), compress.DecodeLimits{}, 1))
	if err != nil {
		t.Fatalf("sequential decode of pinned v1 fixture: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("pinned v1 fixture no longer decodes to the original payload")
	}
	if _, err := NewReaderAt(bytes.NewReader(want), int64(len(want)), goldenCodec, ReaderAtOptions{}); !errors.Is(err, ErrNoTrailer) {
		t.Fatalf("v1 fixture seek attempt: err = %v, want ErrNoTrailer", err)
	}
}
