package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestIsClientDisconnect(t *testing.T) {
	benign := []error{
		syscall.EPIPE,
		syscall.ECONNRESET,
		net.ErrClosed,
		context.Canceled,
		fmt.Errorf("write tcp 1.2.3.4:80: %w", syscall.EPIPE),
		errors.New("write: broken pipe"),
		errors.New("read: connection reset by peer"),
		errors.New("http2: client disconnected"),
	}
	for _, err := range benign {
		if !isClientDisconnect(err) {
			t.Errorf("%v not classified as client disconnect", err)
		}
	}
	faults := []error{
		nil,
		errors.New("no space left on device"),
		errors.New("short write"),
	}
	for _, err := range faults {
		if isClientDisconnect(err) {
			t.Errorf("%v misclassified as client disconnect", err)
		}
	}
}

// brokenPipeWriter fails every write the way a closed client socket
// does, while still satisfying the SSE handler's Flusher requirement.
type brokenPipeWriter struct {
	*httptest.ResponseRecorder
}

func (w *brokenPipeWriter) Write([]byte) (int, error) {
	return 0, fmt.Errorf("write tcp 127.0.0.1:80->127.0.0.1:90: write: %w", syscall.EPIPE)
}
func (w *brokenPipeWriter) Flush() {}

// TestSSEClientDisconnectLogsBenign pins the write-path classification:
// a consumer dropping its event stream produces a "client disconnected"
// line, never an error-shaped "write failed" one.
func TestSSEClientDisconnectLogsBenign(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s := testServer(t, Config{Workers: 1, Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	h := s.Handler()
	st := submit(t, h, csvBody(addressCSV, ""))
	waitTerminal(t, h, st.ID)

	// The finished job's bus replays its history; the very first event
	// write hits the "closed socket" and must end the stream benignly.
	rr := &brokenPipeWriter{ResponseRecorder: httptest.NewRecorder()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/events", nil))
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("SSE handler did not return on dead client")
	}

	mu.Lock()
	defer mu.Unlock()
	var sawBenign bool
	for _, l := range lines {
		if strings.Contains(l, "write failed") {
			t.Errorf("client disconnect logged as error: %q", l)
		}
		if strings.Contains(l, "client disconnected") {
			sawBenign = true
		}
	}
	if !sawBenign {
		t.Errorf("no benign disconnect line logged; got %q", lines)
	}
}

// TestReplicationEndpointsOnPersistentServer checks the leader wiring:
// a server with a data dir serves the replication endpoints, a purely
// in-memory one does not.
func TestReplicationEndpointsOnPersistentServer(t *testing.T) {
	s := testServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	h := s.Handler()
	st := submit(t, h, csvBody(addressCSV, ""))
	waitTerminal(t, h, st.ID)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/replication/status", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"epoch"`) {
		t.Fatalf("leader status: %d %s", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/replication/stream?epoch=bogus&from=0", nil))
	if rr.Code != http.StatusConflict {
		t.Errorf("stale stream position: %d, want 409", rr.Code)
	}

	mem := testServer(t, Config{Workers: 1})
	rr = httptest.NewRecorder()
	mem.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/replication/status", nil))
	if rr.Code != http.StatusNotFound {
		t.Errorf("replication on memory-only server: %d, want 404", rr.Code)
	}
}
