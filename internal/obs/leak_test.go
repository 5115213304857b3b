package obs

import (
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// waitForGoroutines polls until the process goroutine count drops back to
// at most base, failing after a deadline. A hand-rolled goleak: the count
// is noisy (runtime background goroutines come and go), so we retry
// rather than compare once.
func waitForGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // flush finalizer-held conns so their goroutines exit
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s leaked goroutines: %d > baseline %d\n%s", what, n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeShutdownLeakFree asserts that obs.Serve's listener, its serve
// loop, and any in-flight connection goroutines are all gone after
// Close() returns.
func TestServeShutdownLeakFree(t *testing.T) {
	base := runtime.NumGoroutine()

	for i := 0; i < 3; i++ {
		reg := NewRegistry()
		reg.Counter("leak_probe_total").Inc()
		srv, err := Serve("127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		// Exercise a real request so connection goroutines exist, with
		// keep-alives off so the client side doesn't pin the count.
		client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		resp, err := client.Get("http://" + srv.Addr().String() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		client.CloseIdleConnections()
		if err := srv.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// Close must be idempotent and still leak-free.
		srv.Close()
	}

	waitForGoroutines(t, base, "obs.Serve")
}
