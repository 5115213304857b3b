package server

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"morphing/internal/graph"
	"morphing/internal/obs"
)

// TestMappingFaultIsAnErrorDocument: the file of a served mmap graph is
// truncated under the daemon. The next mined query comes back as a fatal
// `panic` error document naming graph.ErrMappingFault — not a SIGBUS that
// takes the process down — and the daemon keeps answering.
func TestMappingFaultIsAnErrorDocument(t *testing.T) {
	c, err := graph.Compress(chordRing(64), 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring.mcsr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBinary2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := graph.Open(path, graph.OpenOptions{Mode: graph.OpenMmap})
	if err != nil {
		t.Skipf("no mmap: %v", err)
	}
	defer h.Close()
	s, err := New(h.Graph(), Config{Obs: &obs.Observer{Metrics: obs.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &Client{Base: ts.URL}
	ctx := context.Background()
	if _, err := cl.Query(ctx, QueryRequest{Patterns: []string{"triangle"}}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Query(ctx, QueryRequest{Patterns: []string{"4-cycle:v"}, NoCache: true})
	qe, ok := AsQueryError(err)
	if !ok || qe.Code != CodePanic || qe.Retryable || !strings.Contains(qe.Message, graph.ErrMappingFault.Error()) {
		t.Fatalf("query over a truncated mapping: %v, want a fatal panic document naming %q", err, graph.ErrMappingFault)
	}
	if hl, err := cl.Health(ctx); err != nil || hl.Status != "ok" {
		t.Fatalf("health after the fault: %+v, %v", hl, err)
	}
}
