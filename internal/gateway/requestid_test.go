package gateway

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"positbench/internal/httpshell"
	"positbench/internal/server"
)

// lockedBuffer collects access-log lines written by server goroutines while
// the test goroutine polls them.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// waitRecords decodes the access log once it holds n lines. A hop writes
// its line after its handler returns, which can be after the client has
// read the whole response.
func waitRecords(t *testing.T, b *lockedBuffer, n int) []httpshell.Record {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		text := strings.TrimSpace(b.buf.String())
		b.mu.Unlock()
		var recs []httpshell.Record
		if text != "" {
			for _, line := range strings.Split(text, "\n") {
				var rec httpshell.Record
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("access log line %q not JSON: %v", line, err)
				}
				recs = append(recs, rec)
			}
		}
		if len(recs) >= n {
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("access log holds %d lines, want %d", len(recs), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProxyRequestIDOneValueBothHops sends requests through the gateway to
// a real positd and checks that both hops resolve the request ID alike: the
// client gets exactly one X-Request-ID, the inbound one when it is valid
// and a minted one otherwise, and both access logs carry that same ID.
func TestProxyRequestIDOneValueBothHops(t *testing.T) {
	var positdLog, gwLog lockedBuffer
	srv, err := server.New(server.Config{AccessLog: &positdLog})
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(srv.Handler())
	defer backend.Close()
	_, front := newTestGateway(t, []string{backend.URL}, func(c *Config) { c.AccessLog = &gwLog })

	cases := []struct {
		name, inbound string
		kept          bool
	}{
		{"None", "", false},
		{"Valid", "client-id-42", true},
		{"TooLong", strings.Repeat("a", 100), false},
		{"BadChars", "has space", false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/compress/gzip", strings.NewReader("one id per request, at both hops"))
			if err != nil {
				t.Fatal(err)
			}
			if tc.inbound != "" {
				req.Header.Set("X-Request-ID", tc.inbound)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, want 200", resp.StatusCode)
			}

			ids := resp.Header.Values("X-Request-ID")
			if len(ids) != 1 {
				t.Fatalf("client got X-Request-ID %q, want exactly one value", ids)
			}
			id := ids[0]
			if tc.kept && id != tc.inbound {
				t.Errorf("X-Request-ID = %q, want the inbound %q", id, tc.inbound)
			}
			if _, err := hex.DecodeString(id); !tc.kept && (err != nil || len(id) != 16) {
				t.Errorf("X-Request-ID = %q, want a minted 16-hex ID", id)
			}

			gw := waitRecords(t, &gwLog, i+1)[i]
			pd := waitRecords(t, &positdLog, i+1)[i]
			if gw.Route != "proxy" || pd.Route != "compress" {
				t.Fatalf("routes = %q and %q, want proxy and compress", gw.Route, pd.Route)
			}
			if gw.RequestID != id || pd.RequestID != id {
				t.Errorf("request_id: positgw %q, positd %q, client %q; want all equal", gw.RequestID, pd.RequestID, id)
			}
		})
	}
}
