package compress_test

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"positbench/internal/compress"
	"positbench/internal/compress/gzipc"
)

func ExampleRoundtrip() {
	data := bytes.Repeat([]byte("scientific data "), 1000)
	n, err := compress.Roundtrip(gzipc.New(), data)
	if err != nil {
		panic(err)
	}
	fmt.Printf("lossless, ratio %.0fx\n", compress.Ratio(len(data), n))
	// Output: lossless, ratio 184x
}

func ExampleNewWriter() {
	var sink bytes.Buffer
	w := compress.NewWriter(context.Background(), gzipc.New(), &sink, 0, 1)
	io.WriteString(w, "stream me")
	w.Close()
	back, _ := io.ReadAll(compress.NewReader(context.Background(), gzipc.New(), &sink, compress.DecodeLimits{}, 1))
	fmt.Println(string(back))
	// Output: stream me
}
