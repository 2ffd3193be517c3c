package server

// Delta-plane tests: incremental append jobs over the HTTP surface.
// The pinned guarantee is differential — a delta job's DDL is
// byte-identical to a from-scratch run over the concatenated input —
// plus the operational contract around it: parent addressing by job ID
// and by content key, chained appends, cache hits on identical delta
// resubmissions, the delta counters in telemetry, 400s on bad parents,
// and lineage that survives a restart.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"normalize"
	"normalize/internal/jobstore"
)

// delta1CSV breaks Postcode→City (14482 now maps to both Potsdam and
// Berlin) while Postcode→Mayor keeps holding — the revalidator must
// demote and re-specialize, not just rubber-stamp the parent cover.
const delta1CSV = `First,Last,Postcode,City,Mayor
Anna,Berg,14482,Berlin,Jakobs
Omar,Webb,60329,Frankfurt,Feldmann
`

// delta2CSV appends only fresh singleton values: no agreeing pairs with
// the base, so the parent lattice is reused verbatim.
const delta2CSV = `First,Last,Postcode,City,Mayor
Lena,Fox,99999,Erfurt,Mayer
`

// concatRows strips a delta CSV's header and appends its rows to a base
// CSV, producing the from-scratch equivalent input.
func concatRows(base string, deltas ...string) string {
	var b strings.Builder
	b.WriteString(base)
	for _, d := range deltas {
		_, rows, _ := strings.Cut(d, "\n")
		b.WriteString(rows)
	}
	return b.String()
}

// deltaBody renders a delta job submission: appended rows plus the
// parent reference (job ID or content key).
func deltaBody(csv, parent string) string {
	raw, _ := json.Marshal(csv)
	ref, _ := json.Marshal(parent)
	return `{"name":"address","csv":` + string(raw) + `,"parent":` + string(ref) + `,"options":{}}`
}

// fetchDDL retrieves a finished job's schema as SQL text.
func fetchDDL(t *testing.T, h http.Handler, id string) string {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+id+"/result?format=sql", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("result %s: %d %s", id, rr.Code, rr.Body.String())
	}
	return rr.Body.String()
}

func TestDeltaJobMatchesFromScratch(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()

	parent := waitTerminal(t, h, submit(t, h, csvBody(addressCSV, "")).ID)
	if parent.State != StateDone || parent.Key == "" {
		t.Fatalf("parent: state=%s key=%q", parent.State, parent.Key)
	}

	// Delta addressed by job ID; the same instance from scratch.
	d1 := waitTerminal(t, h, submit(t, h, deltaBody(delta1CSV, parent.ID)).ID)
	if d1.State != StateDone {
		t.Fatalf("delta job: %s (%s)", d1.State, d1.Error)
	}
	if d1.Parent != parent.Key {
		t.Fatalf("delta parent key = %q, want %q", d1.Parent, parent.Key)
	}
	scratch := waitTerminal(t, h, submit(t, h, csvBody(concatRows(addressCSV, delta1CSV), "")).ID)
	if got, want := fetchDDL(t, h, d1.ID), fetchDDL(t, h, scratch.ID); got != want {
		t.Errorf("delta DDL differs from from-scratch DDL:\n--- delta ---\n%s\n--- scratch ---\n%s", got, want)
	}

	// The same append addressed by the parent's CONTENT KEY derives the
	// same child key and answers straight from the result cache.
	rekey := submit(t, h, deltaBody(delta1CSV, parent.Key))
	if !rekey.Cached || rekey.State != StateDone || rekey.Key != d1.Key {
		t.Errorf("content-key resubmission: cached=%t state=%s key match=%t",
			rekey.Cached, rekey.State, rekey.Key == d1.Key)
	}

	// Chained append: the delta job itself serves as the next parent.
	d2 := waitTerminal(t, h, submit(t, h, deltaBody(delta2CSV, d1.ID)).ID)
	if d2.State != StateDone {
		t.Fatalf("chained delta: %s (%s)", d2.State, d2.Error)
	}
	scratch2 := waitTerminal(t, h, submit(t, h, csvBody(concatRows(addressCSV, delta1CSV, delta2CSV), "")).ID)
	if got, want := fetchDDL(t, h, d2.ID), fetchDDL(t, h, scratch2.ID); got != want {
		t.Errorf("chained delta DDL differs from from-scratch DDL")
	}

	// The delta counters reach the job's telemetry scrape.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+d1.ID+"/telemetry", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("telemetry: %d", rr.Code)
	}
	for _, counter := range []string{"delta_fds_checked", "delta_fds_demoted", "delta_lattice_reused"} {
		if !strings.Contains(rr.Body.String(), counter) {
			t.Errorf("telemetry missing %s", counter)
		}
	}
}

func TestDeltaSubmitRejectsBadParents(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	parent := waitTerminal(t, h, submit(t, h, csvBody(addressCSV, "")).ID)

	post := func(body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
		return rr
	}
	cases := []struct {
		name, body string
		code       int
		errFrag    string
	}{
		{"unknown ref", deltaBody(delta1CSV, "nosuchjob"), http.StatusBadRequest, "no job ID or content key"},
		{"generator delta", `{"dataset":{"generator":"horse"},"parent":"` + parent.ID + `"}`,
			http.StatusBadRequest, "dataset generator"},
		{"budgeted delta", `{"name":"a","csv":"A\n1\n","parent":"` + parent.ID + `","options":{"max_rows":5}}`,
			http.StatusBadRequest, "resource budgets"},
	}
	for _, tc := range cases {
		rr := post(tc.body)
		if rr.Code != tc.code || !strings.Contains(rr.Body.String(), tc.errFrag) {
			t.Errorf("%s: code=%d body=%s", tc.name, rr.Code, rr.Body.String())
		}
	}
	// A header mismatch is only detectable at run time (the parent's
	// relation must be materialized first); the job fails cleanly.
	st := waitTerminal(t, h, submit(t, h, deltaBody("Wrong,Header\nx,y\n", parent.ID)).ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "does not match parent attributes") {
		t.Errorf("mismatched header: state=%s err=%q", st.State, st.Error)
	}
}

// TestCacheByteBudget: the result cache is charged by encoded-result
// size, not just entry count — delta-derived (lineage child) results
// are full results charged like any other, so long append chains can't
// hide an unbounded memory footprint behind a small entry count.
func TestCacheByteBudget(t *testing.T) {
	unit := encodedSize(&normalize.Result{})
	if unit <= 0 {
		t.Fatalf("encodedSize of an empty result = %d", unit)
	}
	// Budget fits two entries but not three; the count bound never
	// binds, so eviction here is purely byte-driven.
	c := newResultCache(100, 2*unit)
	c.put("a", &normalize.Result{})
	c.put("b", &normalize.Result{})
	if c.Bytes() != 2*unit || c.Len() != 2 {
		t.Fatalf("bytes=%d len=%d, want %d/2", c.Bytes(), c.Len(), 2*unit)
	}
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", &normalize.Result{})
	if _, ok := c.get("b"); ok {
		t.Error("byte budget exceeded but LRU entry not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("refreshed entry evicted ahead of LRU")
	}
	if c.Bytes() > 2*unit {
		t.Errorf("bytes=%d exceeds budget %d", c.Bytes(), 2*unit)
	}

	// An entry larger than the whole budget is still admitted — alone.
	tight := newResultCache(100, unit/2)
	tight.put("big", &normalize.Result{})
	if tight.Len() != 1 {
		t.Fatal("oversized entry rejected outright")
	}
	tight.put("big2", &normalize.Result{})
	if _, ok := tight.get("big"); ok || tight.Len() != 1 {
		t.Error("oversized entries accumulated past the budget")
	}
}

// TestDeltaLineagePersistsAndRestores: a delta job's ancestry edge is
// durable — visible in the job store after shutdown, and the restarted
// server answers an identical delta resubmission from the rehydrated
// cache without recomputing.
func TestDeltaLineagePersistsAndRestores(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dir, MetricsName: fmt.Sprintf("test_delta_persist_%d", serverSeq.Add(1))}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	parent := waitTerminal(t, h, submit(t, h, csvBody(addressCSV, "")).ID)
	d1 := waitTerminal(t, h, submit(t, h, deltaBody(delta1CSV, parent.ID)).ID)
	if d1.State != StateDone {
		t.Fatalf("delta job: %s (%s)", d1.State, d1.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(ctx)

	// The lineage edge is on disk: (parent key, delta hash) → child key.
	store, _, err := jobstore.Open(dir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	edge, ok := store.LookupLineage(d1.Key)
	if !ok || edge.Parent != parent.Key || edge.JobID != d1.ID {
		t.Fatalf("lineage edge = %+v, %v; want parent %q job %q", edge, ok, parent.Key, d1.ID)
	}
	wireCSV := func(s string) []byte { // spec stores the JSON string's bytes
		var out string
		raw, _ := json.Marshal(s)
		json.Unmarshal(raw, &out)
		return []byte(out)
	}
	if edge.Delta != deltaHash(wireCSV(delta1CSV)) {
		t.Errorf("lineage delta hash = %q", edge.Delta)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the restored delta spec re-finalizes to the same child
	// key, so the identical resubmission (by content key) is a cache hit.
	cfg.MetricsName = fmt.Sprintf("test_delta_persist_%d", serverSeq.Add(1))
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	h2 := s2.Handler()
	again := submit(t, h2, deltaBody(delta1CSV, parent.Key))
	if !again.Cached || again.State != StateDone || again.Key != d1.Key {
		t.Errorf("post-restart resubmission: cached=%t state=%s key=%q want %q",
			again.Cached, again.State, again.Key, d1.Key)
	}
	// The restored delta job itself kept its identity.
	restored := getStatus(t, h2, d1.ID)
	if restored.Key != d1.Key || restored.Parent != parent.Key {
		t.Errorf("restored delta job: key=%q parent=%q", restored.Key, restored.Parent)
	}
}
