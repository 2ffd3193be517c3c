package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"normalize"
)

// addressCSV is the paper's running example (Figure 2): Postcode
// determines City and Mayor, so BCNF splits the relation in two.
const addressCSV = `First,Last,Postcode,City,Mayor
Thomas,Miller,14482,Potsdam,Jakobs
Sarah,Miller,14482,Potsdam,Jakobs
Peter,Smith,60329,Frankfurt,Feldmann
Jasmine,Cone,01069,Dresden,Orosz
Mike,Cone,14482,Potsdam,Jakobs
Thomas,Moore,60329,Frankfurt,Feldmann
`

// serverSeq numbers the test servers of one process, so a test that
// runs more than once (go test -count N) still names a fresh expvar.
var serverSeq atomic.Int64

// testServer builds a server with a unique expvar name per test run
// (the registry is process-global and rejects duplicates).
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.MetricsName == "" {
		cfg.MetricsName = fmt.Sprintf("test_%s_%d", strings.ReplaceAll(t.Name(), "/", "_"), serverSeq.Add(1))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func submit(t *testing.T, h http.Handler, body string) jobStatus {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
	if rr.Code != http.StatusAccepted && rr.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", rr.Code, rr.Body.String())
	}
	var st jobStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("submit response: %v: %s", err, rr.Body.String())
	}
	return st
}

func getStatus(t *testing.T, h http.Handler, id string) jobStatus {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %s: %d %s", id, rr.Code, rr.Body.String())
	}
	var st jobStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, h http.Handler, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, h, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobStatus{}
}

func csvBody(csv string, opts string) string {
	b, _ := json.Marshal(csv)
	return fmt.Sprintf(`{"name":"address","csv":%s,"options":{%s}}`, b, opts)
}

func TestSubmitRunsToDone(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	st := submit(t, h, csvBody(addressCSV, ""))
	if st.State != StateQueued {
		t.Fatalf("state after submit = %s, want queued", st.State)
	}
	st = waitTerminal(t, h, st.ID)
	if st.State != StateDone {
		t.Fatalf("terminal state = %s (%s), want done", st.State, st.Error)
	}
	if st.Tables != 2 {
		t.Errorf("tables = %d, want 2 (Figure 2 split)", st.Tables)
	}
	if st.Started == nil || st.Finished == nil {
		t.Error("timestamps missing on terminal job")
	}
}

func TestResultPayloadAndSQLFormat(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	st := submit(t, h, csvBody(addressCSV, ""))
	waitTerminal(t, h, st.ID)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/result?include=rows", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("result: %d %s", rr.Code, rr.Body.String())
	}
	var payload resultPayload
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(payload.DDL, "CREATE TABLE") {
		t.Errorf("DDL missing CREATE TABLE: %q", payload.DDL)
	}
	if len(payload.Rows) != 2 {
		t.Errorf("rows for %d tables, want 2", len(payload.Rows))
	}
	var schema struct {
		Tables []struct {
			Name string `json:"name"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(payload.Schema, &schema); err != nil {
		t.Fatal(err)
	}
	if len(schema.Tables) != 2 {
		t.Errorf("schema tables = %d, want 2", len(schema.Tables))
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/result?format=sql", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "CREATE TABLE") {
		t.Errorf("sql format: %d %q", rr.Code, rr.Body.String())
	}
}

func TestResultBeforeFinishConflicts(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	// A generator job large enough to still be running right after
	// submission (and cancelled in cleanup via server shutdown).
	st := submit(t, h, `{"dataset":{"generator":"flight","seed":1},"options":{"max_lhs":2}}`)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/result", nil))
	if rr.Code != http.StatusConflict {
		t.Fatalf("result on unfinished job: %d, want 409", rr.Code)
	}
	// Cancel so cleanup doesn't wait for the full run.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("DELETE", "/v1/jobs/"+st.ID, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("cancel: %d", rr.Code)
	}
	fin := waitTerminal(t, h, st.ID)
	if fin.State != StateCancelled {
		t.Errorf("state after cancel = %s, want cancelled", fin.State)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 8})
	h := s.Handler()
	// Occupy the single worker...
	blocker := submit(t, h, `{"dataset":{"generator":"plista","seed":1},"options":{"max_lhs":2}}`)
	// ...then queue a second job and cancel it before it can start.
	queued := submit(t, h, csvBody(addressCSV, ""))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("DELETE", "/v1/jobs/"+queued.ID, nil))
	var st jobStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("cancelled queued job state = %s", st.State)
	}
	if st.Tables != 0 {
		t.Errorf("cancelled queued job has %d tables", st.Tables)
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("DELETE", "/v1/jobs/"+blocker.ID, nil))
	waitTerminal(t, h, blocker.ID)
}

func TestQueueFullRejectsWith503(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 1})
	h := s.Handler()
	// One running + one queued fills the system; the next must bounce.
	j1 := submit(t, h, `{"dataset":{"generator":"plista","seed":1},"options":{"max_lhs":2}}`)
	waitRunning(t, h, j1.ID)
	submit(t, h, `{"dataset":{"generator":"plista","seed":2},"options":{"max_lhs":2}}`)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs",
		strings.NewReader(`{"dataset":{"generator":"plista","seed":3},"options":{"max_lhs":2}}`)))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("submit to full queue = %d, want 503", rr.Code)
	}
	if got := rr.Header().Get("Retry-After"); got == "" {
		t.Error("503 without Retry-After")
	}
	// Unblock cleanup.
	for _, j := range s.m.Jobs() {
		j.Cancel()
	}
}

// waitRunning polls until the job leaves the queue.
func waitRunning(t *testing.T, h http.Handler, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, h, id)
		if st.State != StateQueued {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

func TestBadRequests(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	cases := []struct {
		name, body string
		code       int
	}{
		{"neither source", `{"options":{}}`, http.StatusBadRequest},
		{"both sources", `{"csv":"a\n1","dataset":{"generator":"tpch"}}`, http.StatusBadRequest},
		{"bad mode", csvBody("a\n1", `"mode":"5nf"`), http.StatusBadRequest},
		{"bad closure", csvBody("a\n1", `"closure":"quantum"`), http.StatusBadRequest},
		{"bad generator", `{"dataset":{"generator":"tpcds"}}`, http.StatusBadRequest},
		{"negative option", csvBody("a\n1", `"max_lhs":-1`), http.StatusBadRequest},
		{"unknown field", `{"csv":"a\n1","bogus":true}`, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(c.body)))
		if rr.Code != c.code {
			t.Errorf("%s: code %d, want %d (%s)", c.name, rr.Code, c.code, rr.Body.String())
		}
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/missing", nil))
	if rr.Code != http.StatusNotFound {
		t.Errorf("missing job: %d, want 404", rr.Code)
	}
}

func TestBodySizeCap(t *testing.T) {
	s := testServer(t, Config{Workers: 1, MaxBodyBytes: 256})
	h := s.Handler()
	big := csvBody("a,b\n"+strings.Repeat("x,y\n", 200), "")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(big)))
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", rr.Code)
	}
}

func TestCacheServesIdenticalResubmission(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	body := csvBody(addressCSV, `"max_lhs":3`)
	first := submit(t, h, body)
	fin := waitTerminal(t, h, first.ID)
	if fin.State != StateDone {
		t.Fatalf("first run: %s", fin.State)
	}

	second := submit(t, h, body)
	if !second.Cached || second.State != StateDone {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	if second.ID == first.ID {
		t.Error("cache hit must still mint a fresh job ID")
	}

	// Different options miss the cache.
	third := submit(t, h, csvBody(addressCSV, `"max_lhs":2`))
	if third.Cached {
		t.Error("different options must not hit the cache")
	}
	waitTerminal(t, h, third.ID)

	// SSE on a cached job replays the terminal event and closes.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+second.ID+"/events", nil))
	if !strings.Contains(rr.Body.String(), `"cached":true`) {
		t.Errorf("cached job SSE stream missing cached state event: %q", rr.Body.String())
	}
}

// TestCacheFilledBeforeJobReadsDone: a client that sees a job done and
// resubmits at once must be served from the cache, so the entry has to
// exist by the time the job reads as terminal. Each round submits a
// fresh input to a persisting server, spins on the job's state without
// sleeping, and checks the cache the moment the state turns terminal;
// persistence widens any window between the two, so a cache put that
// trails the state change fails within a few rounds.
func TestCacheFilledBeforeJobReadsDone(t *testing.T) {
	s := testServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	h := s.Handler()
	for round := 0; round < 50; round++ {
		csv := addressCSV + fmt.Sprintf("Round,Robin,%05d,Town%d,Mayor%d\n", round, round, round)
		st := submit(t, h, csvBody(csv, ""))
		job, ok := s.m.Get(st.ID)
		if !ok {
			t.Fatalf("round %d: job %s not registered", round, st.ID)
		}
		for !job.State().Terminal() {
			runtime.Gosched()
		}
		if state := job.State(); state != StateDone {
			t.Fatalf("round %d: job ended %s", round, state)
		}
		if _, ok := s.m.cache.get(job.spec.key); !ok {
			t.Fatalf("round %d: job reads done before its result is cached", round)
		}
	}
}

// TestSubmitCodeFollowsCached: a submission answers 200 only for a
// cache hit. A queued job that a worker finished before the handler
// took its status snapshot still ran, so it answers 202.
func TestSubmitCodeFollowsCached(t *testing.T) {
	ran := newJob(&jobSpec{})
	ran.state = StateDone
	hit := newJob(&jobSpec{})
	hit.state, hit.cached = StateDone, true
	if code := submitCode(statusOf(ran)); code != http.StatusAccepted {
		t.Errorf("finished uncached job answers %d, want 202", code)
	}
	if code := submitCode(statusOf(hit)); code != http.StatusOK {
		t.Errorf("cache hit answers %d, want 200", code)
	}
}

func TestLenientCSVReportsSkippedRows(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	bad := "a,b\n1,2\nragged\n3,4\n"
	body, _ := json.Marshal(bad)
	st := submit(t, h, fmt.Sprintf(`{"csv":%s,"lenient":true,"options":{}}`, body))
	fin := waitTerminal(t, h, st.ID)
	if fin.State != StateDone {
		t.Fatalf("lenient job: %s (%s)", fin.State, fin.Error)
	}
	if fin.SkippedRows != 1 {
		t.Errorf("skipped_rows = %d, want 1", fin.SkippedRows)
	}

	// The same CSV without lenient fails.
	st = submit(t, h, fmt.Sprintf(`{"csv":%s,"options":{}}`, body))
	fin = waitTerminal(t, h, st.ID)
	if fin.State != StateFailed {
		t.Errorf("strict job on ragged CSV: %s, want failed", fin.State)
	}
}

func TestTimeoutYieldsPartial(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	// A 1ms budget cannot finish a 109-attribute discovery.
	st := submit(t, h, `{"dataset":{"generator":"flight","seed":1},"options":{"max_lhs":2,"timeout_ms":1}}`)
	fin := waitTerminal(t, h, st.ID)
	if fin.State != StatePartial {
		t.Fatalf("state = %s (%s), want partial", fin.State, fin.Error)
	}
	if len(fin.Degradations) == 0 {
		t.Error("partial job carries no degradation report")
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/result", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("partial result: %d", rr.Code)
	}
	var payload resultPayload
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.State != StatePartial || len(payload.Schema) == 0 {
		t.Errorf("partial payload = state %s, schema %d bytes", payload.State, len(payload.Schema))
	}
	if payload.Error == "" {
		t.Error("partial payload missing the PartialError description")
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	for _, path := range []string{"/healthz", "/readyz"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != http.StatusOK {
			t.Errorf("%s = %d", path, rr.Code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(csvBody(addressCSV, ""))))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", rr.Code)
	}
}

func TestTelemetryScrape(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	st := submit(t, h, csvBody(addressCSV, ""))
	waitTerminal(t, h, st.ID)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/telemetry", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("telemetry: %d", rr.Code)
	}
	var stages []map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &stages); err != nil {
		t.Fatal(err)
	}
	if len(stages) == 0 {
		t.Error("telemetry empty after completed run")
	}
}

// TestIngestTelemetryExposed pins the ingest stage's observability: the
// streaming CSV load reports its span and counters like any pipeline
// stage, so they reach both the per-job telemetry scrape and the
// process-wide /debug/vars aggregates.
func TestIngestTelemetryExposed(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	st := submit(t, h, csvBody(addressCSV, ""))
	waitTerminal(t, h, st.ID)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/telemetry", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("telemetry: %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), `"ingest"`) {
		t.Errorf("job telemetry missing ingest stage: %s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/vars", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("debug/vars: %d", rr.Code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	var byStage map[string]struct {
		Spans    int              `json:"spans"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(vars[s.cfg.MetricsName], &byStage); err != nil {
		t.Fatal(err)
	}
	ing, ok := byStage["ingest"]
	if !ok {
		t.Fatalf("debug/vars missing ingest stage: %s", vars[s.cfg.MetricsName])
	}
	if ing.Spans == 0 || ing.Counters["ingest_rows"] == 0 || ing.Counters["ingest_bytes"] == 0 {
		t.Errorf("ingest aggregates incomplete: %+v", ing)
	}

	// The SSE stream replays a finished job's history; the ingest span
	// must be in it like any pipeline stage's.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/events", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("events: %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), `"ingest"`) {
		t.Errorf("SSE replay missing ingest events: %s", rr.Body.String())
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	h := s.Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/boom", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler = %d, want 500", rr.Code)
	}
}

func TestBusReplayAndLiveDelivery(t *testing.T) {
	b := newBus()
	b.publish("state", stateEventData{ID: "x", State: StateQueued})
	sub := b.subscribe()
	defer sub.cancel()
	replay, done := sub.poll()
	if len(replay) != 1 || replay[0].Type != "state" || done {
		t.Fatalf("replay = %+v done=%v", replay, done)
	}
	b.publish("stage", stageEventData{Stage: "fd-discovery", Event: "start"})
	select {
	case <-sub.wake:
	case <-time.After(time.Second):
		t.Fatal("wake signal not delivered")
	}
	live, done := sub.poll()
	if len(live) != 1 || live[0].Type != "stage" || live[0].ID != 2 || done {
		t.Fatalf("live events = %+v done=%v", live, done)
	}
	b.close()
	if _, ok := <-sub.wake; ok {
		t.Error("wake channel not closed on bus close")
	}
	if more, done := sub.poll(); len(more) != 0 || !done {
		t.Errorf("post-close poll = %+v done=%v, want none/true", more, done)
	}
	// Late subscriber after close still sees the full history.
	sub2 := b.subscribe()
	defer sub2.cancel()
	replay2, done2 := sub2.poll()
	if len(replay2) != 2 || !done2 {
		t.Errorf("post-close replay = %d events done=%v, want 2/true", len(replay2), done2)
	}
	if _, ok := <-sub2.wake; ok {
		t.Error("post-close wake channel not closed")
	}
}

func TestBusSlowSubscriberStillSeesTerminalEvent(t *testing.T) {
	b := newBus()
	sub := b.subscribe() // registered but never polled during the burst
	defer sub.cancel()
	for i := 0; i < 50; i++ {
		b.publish(eventProgress, progressEventData{})
	}
	b.publish(eventState, stateEventData{ID: "x", State: StateDone})
	b.close()
	events, done := sub.poll()
	if !done {
		t.Fatal("poll did not report stream complete")
	}
	if len(events) != 51 {
		t.Errorf("got %d events, want 51", len(events))
	}
	last := events[len(events)-1]
	if last.Type != eventState {
		t.Errorf("last event = %s, want terminal %s", last.Type, eventState)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2, 0)
	r1, r2, r3 := &normalize.Result{}, &normalize.Result{}, &normalize.Result{}
	c.put("a", r1, 0)
	c.put("b", r2, 0)
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", r3, 0)
	if _, ok := c.get("b"); ok {
		t.Error("b not evicted")
	}
	if got, ok := c.get("a"); !ok || got != r1 {
		t.Error("a lost")
	}
	if got, ok := c.get("c"); !ok || got != r3 {
		t.Error("c lost")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	// Disabled cache accepts and returns nothing.
	off := newResultCache(-1, 0)
	off.put("a", r1, 0)
	if _, ok := off.get("a"); ok {
		t.Error("disabled cache returned a hit")
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	mk := func(opts normalize.Options) *jobSpec {
		return &jobSpec{csv: []byte(addressCSV), name: "address", opts: opts}
	}
	base := cacheKey(mk(normalize.Options{MaxLhs: 3}))
	if base != cacheKey(mk(normalize.Options{MaxLhs: 3})) {
		t.Error("identical specs hash differently")
	}
	if base == cacheKey(mk(normalize.Options{MaxLhs: 2})) {
		t.Error("different options hash identically")
	}
	gen := cacheKey(&jobSpec{gen: "tpch", scale: 0.001, seed: 1})
	if gen == cacheKey(&jobSpec{gen: "tpch", scale: 0.001, seed: 2}) {
		t.Error("different seeds hash identically")
	}
	if base == gen {
		t.Error("csv and generator specs collide")
	}
}

// TestSSEHandlerStreamsToCompletion drives the SSE handler against a
// short job using a pipe-backed recorder, asserting the stream carries
// stage events and ends with the terminal state.
func TestSSEHandlerStreamsToCompletion(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	st := submit(t, h, csvBody(addressCSV, ""))

	rr := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/events", nil))
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not terminate")
	}
	out := rr.Body.String()
	if !strings.Contains(out, "event: stage") {
		t.Errorf("stream missing stage events: %q", out)
	}
	if !strings.Contains(out, `"state":"done"`) {
		t.Errorf("stream missing terminal state: %q", out)
	}
	// The terminal event must be last.
	events := bytes.Split(bytes.TrimSpace(rr.Body.Bytes()), []byte("\n\n"))
	last := string(events[len(events)-1])
	if !strings.Contains(last, `"state":"done"`) {
		t.Errorf("last event is not terminal: %q", last)
	}
}

// TestJobWorkersDefault pins the server-wide validation-worker default:
// submissions that omit options.workers inherit Config.JobWorkers,
// explicit values are never overridden, and the zero config keeps the
// pipeline default (workers = 0, all CPUs).
func TestJobWorkersDefault(t *testing.T) {
	s := testServer(t, Config{Workers: 1, JobWorkers: 3})
	h := s.Handler()

	st := submit(t, h, csvBody(addressCSV, ""))
	job, ok := s.m.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not found", st.ID)
	}
	if got := job.spec.opts.Workers; got != 3 {
		t.Errorf("defaulted job: workers = %d, want 3", got)
	}

	st = submit(t, h, csvBody(addressCSV, `"workers":2`))
	job, ok = s.m.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not found", st.ID)
	}
	if got := job.spec.opts.Workers; got != 2 {
		t.Errorf("explicit job: workers = %d, want 2", got)
	}

	s2 := testServer(t, Config{Workers: 1})
	st = submit(t, s2.Handler(), csvBody(addressCSV, ""))
	job, ok = s2.m.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not found", st.ID)
	}
	if got := job.spec.opts.Workers; got != 0 {
		t.Errorf("zero-config job: workers = %d, want 0", got)
	}
}
