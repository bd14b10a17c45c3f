package httpshell

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// WriteAddrFile records a bound address via atomic rename, so a polling
// script never reads a half-written file.
func WriteAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Serve serves hs on ln until SIGINT or SIGTERM, then drains in the order
// both daemons share: unready flips the daemon's /readyz, the listener
// keeps answering for grace so health checkers see the flip before
// connections are refused, and Shutdown gives in-flight requests up to
// drain to finish. It returns the process exit code: 0 when the drain
// completed, 1 when it was cut off or serving failed. name prefixes the
// log lines.
func Serve(name string, hs *http.Server, ln net.Listener, unready func(), grace, drain time.Duration) int {
	// Register before serving, so a client that got any answer can rely on
	// a signal reaching the drain rather than killing the process.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(stop)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case sig := <-stop:
		log.Printf("%s: %v: flipping /readyz, draining in %v for up to %v", name, sig, grace, drain)
		unready()
		time.Sleep(grace)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("%s: drain cut off: %v", name, err)
			hs.Close()
			return 1
		}
		log.Printf("%s: drained clean", name)
		return 0
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Printf("%s: serve: %v", name, err)
			return 1
		}
		return 0
	}
}
