package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// echoBackend stands in for positd: every path answers 200, so the
// gateway's health probes keep it ready, and POST bodies come back as-is.
func echoBackend(t *testing.T) *httptest.Server {
	t.Helper()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Backend", "echo")
		io.Copy(w, r.Body)
	}))
	t.Cleanup(b.Close)
	return b
}

// startGateway runs the daemon in the background and returns its address
// and the channel its exit code arrives on.
func startGateway(t *testing.T, addrFile string, extra ...string) (string, chan int) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-backends", echoBackend(t).URL, "-drain", "5s", "-quiet"}, extra...)
	exitC := make(chan int, 1)
	go func() { exitC <- run(args) }()
	return waitForAddr(t, addrFile), exitC
}

// waitExit requires the daemon to exit 0 soon after SIGTERM.
func waitExit(t *testing.T, exitC chan int) {
	t.Helper()
	select {
	case code := <-exitC:
		if code != 0 {
			t.Fatalf("run exited %d after SIGTERM, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gateway did not exit after SIGTERM")
	}
}

// TestRunServeAndDrain boots the gateway in front of one backend, proxies a
// POST through it, then sends SIGTERM and expects a clean (exit 0) drain
// that removes the addr-file.
func TestRunServeAndDrain(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	addr, exitC := startGateway(t, addrFile, "-drain-grace", "0s")

	resp, err := http.Post("http://"+addr+"/v1/compress/gzip", "application/octet-stream", strings.NewReader("through the gateway"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "through the gateway" || resp.Header.Get("X-Backend") != "echo" {
		t.Fatalf("proxied POST = %d %q (X-Backend %q), want the backend's echo",
			resp.StatusCode, body, resp.Header.Get("X-Backend"))
	}

	// SIGTERM to our own process reaches the daemon's signal handler.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, exitC)
	if _, err := os.Stat(addrFile); !os.IsNotExist(err) {
		t.Fatalf("addr-file not cleaned up: %v", err)
	}
}

// TestRunDrainGraceFlipsReadyz pins the drain ordering: after SIGTERM the
// gateway answers 503 "draining" on /readyz (and still 200 on /healthz)
// while the listener stays open for -drain-grace, then exits clean.
func TestRunDrainGraceFlipsReadyz(t *testing.T) {
	addr, exitC := startGateway(t, filepath.Join(t.TempDir(), "addr"), "-drain-grace", "700ms")
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return -1, ""
		}
		defer resp.Body.Close()
		var doc struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&doc)
		return resp.StatusCode, doc.Status
	}
	if code, state := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain = %d %q, want 200", code, state)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Within the grace window the listener must still answer: unready on
	// /readyz, alive on /healthz.
	deadline := time.Now().Add(600 * time.Millisecond)
	flipped := false
	for time.Now().Before(deadline) {
		if code, state := get("/readyz"); code == http.StatusServiceUnavailable && state == "draining" {
			flipped = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !flipped {
		t.Fatal("readyz never answered 503 draining during the drain grace")
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain grace = %d, want 200 (liveness must not flip)", code)
	}
	waitExit(t, exitC)
}

func TestRunBadFlags(t *testing.T) {
	if code := run([]string{"-addr"}); code != 2 {
		t.Fatalf("bad flags exited %d, want 2", code)
	}
	if code := run([]string{"-addr", "127.0.0.1:0"}); code != 2 {
		t.Fatalf("missing -backends exited %d, want 2", code)
	}
	if code := run([]string{"-backends", "127.0.0.1:1", "-addr", "256.0.0.1:bogus"}); code != 1 {
		t.Fatalf("bad listen address exited %d, want 1", code)
	}
}

func waitForAddr(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if blob, err := os.ReadFile(path); err == nil {
			return strings.TrimSpace(string(blob))
		}
		if time.Now().After(deadline) {
			t.Fatal("addr-file never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
