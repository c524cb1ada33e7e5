package gma

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/security"
	"gridrm/internal/trace"
)

// intRows is a one-column result of n rows, each holding v.
func intRows(t testing.TB, n int, v int64) *resultset.ResultSet {
	t.Helper()
	meta, err := resultset.NewMetadata([]resultset.Column{{Name: "N", Kind: glue.Int}})
	if err != nil {
		t.Fatal(err)
	}
	b := resultset.NewBuilder(meta).Grow(n, 0)
	for i := 0; i < n; i++ {
		b.Append(v)
	}
	rs, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// fakeRepublisher answers as a republisher does: a full answer carrying the
// validator of its current version, or 304 to a request that brings that
// validator back. Every answer takes a millisecond of the router's clock.
type fakeRepublisher struct {
	t   *testing.T
	now *time.Time

	mu      sync.Mutex
	version int64
	sent    []string // the validator each request brought
	etag    string   // when set, what every 304 names instead
	noETag  bool     // full answers carry no validator
}

func (f *fakeRepublisher) exec(_ context.Context, endpoint string, req core.QueryOptions) (*core.Response, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	*f.now = f.now.Add(time.Millisecond)
	f.sent = append(f.sent, req.Validator)
	v := fmt.Sprint("v", f.version)
	if !strings.HasPrefix(endpoint, "http://r") {
		return &core.Response{Site: req.Site, ResultSet: intRows(f.t, 1, -1)}, nil
	}
	if req.Validator == v {
		if f.etag != "" {
			v = f.etag
		}
		return &core.Response{NotModified: true, Validator: v}, nil
	}
	resp := &core.Response{Site: endpoint, SQL: req.SQL, ResultSet: intRows(f.t, 3, f.version),
		Elapsed: time.Hour, Validator: v, Trace: []trace.SpanData{{Name: "query", Remote: true}}}
	if f.noETag {
		resp.Validator = ""
	}
	return resp, nil
}

func (f *fakeRepublisher) lastSent() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent[len(f.sent)-1]
}

func newHeldFixture(t *testing.T) (*Router, *fakeRepublisher) {
	d := NewDirectory(0, nil)
	_ = d.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	_ = d.RegisterContext(context.Background(), Registration{Name: "R", Endpoint: "http://r", Role: RoleRepublisher})
	now := time.Unix(1000, 0)
	f := &fakeRepublisher{t: t, now: &now}
	r := NewRouter(d, f.exec, "A", Config{Clock: func() time.Time { return now }})
	return r, f
}

// TestRouterRevalidatesHeldAnswers: a republisher's answer is held, and the
// next identical request sends its validator. The 304 serves the held
// answer: the same rows in a set of its own, no validator, no remote spans,
// and the round trip the router measured; the remote-query span says so.
// Requests that differ in anything that decides the answer send no
// validator; Timeout and Trace decide nothing. A changed answer replaces the
// held one, and a site leg never carries a validator, not even its caller's.
func TestRouterRevalidatesHeldAnswers(t *testing.T) {
	r, f := newHeldFixture(t)
	ctx := context.Background()
	region := core.QueryOptions{SQL: "SELECT N FROM T", Site: "R", Region: []string{"B"},
		Principal: security.Principal{Name: "u", Roles: []string{"operator"}}}

	first, err := r.RemoteQueryContext(ctx, "R", region)
	if err != nil || f.lastSent() != "" || first.Validator != "" || first.ResultSet.Len() != 3 {
		t.Fatalf("first read = %+v, %v; sent %q", first, err, f.lastSent())
	}
	tr := trace.New(trace.Options{})
	tctx, root := tr.StartTrace(ctx, "query", "A", trace.DecideOn)
	second, err := r.RemoteQueryContext(tctx, "R", region)
	spans := root.EndCollected()
	if err != nil || f.lastSent() != "v0" {
		t.Fatalf("second read = %v; sent %q, want the held validator v0", err, f.lastSent())
	}
	if second.NotModified || second.Validator != "" || second.Trace != nil || second.Elapsed != time.Millisecond {
		t.Errorf("revalidated answer = %+v, want a full answer with no validator or spans, Elapsed 1ms", second)
	}
	if second.ResultSet == first.ResultSet || second.ResultSet.Len() != 3 || second.ResultSet.Cell(2, 0).Value() != int64(0) {
		t.Errorf("revalidated rows are not a set of their own holding the held rows")
	}
	var marked bool
	for _, sp := range spans {
		if sp.Name == "remote-query" && sp.Attrs["answered"] == "not_modified" && sp.Attrs["held_age"] == "1ms" {
			marked = true
		}
		if sp.Remote {
			t.Errorf("a revalidated leg stitched a remote span %+v", sp)
		}
	}
	if !marked {
		t.Errorf("no remote-query span says it was answered not_modified from a held answer 1ms old: %+v", spans)
	}
	if st := r.Stats(); st.NotModified != 1 {
		t.Errorf("NotModified = %d, want 1", st.NotModified)
	}

	quiet := region
	quiet.Timeout, quiet.Trace = time.Second, trace.DecideOff
	if _, err := r.RemoteQueryContext(ctx, "R", quiet); err != nil || f.lastSent() != "v0" {
		t.Errorf("a request differing in Timeout and Trace sent %q (%v), want v0", f.lastSent(), err)
	}
	for name, other := range map[string]func(*core.QueryOptions){
		"principal": func(q *core.QueryOptions) { q.Principal.Name = "v" },
		"roles":     func(q *core.QueryOptions) { q.Principal.Roles = nil },
		"sql":       func(q *core.QueryOptions) { q.SQL += " WHERE N > 0" },
		"region":    func(q *core.QueryOptions) { q.Region = []string{"B", "C"} },
		"mode":      func(q *core.QueryOptions) { q.Mode = core.ModeRealTime },
	} {
		q := region
		other(&q)
		if _, err := r.RemoteQueryContext(ctx, "R", q); err != nil || f.lastSent() != "" {
			t.Errorf("a request with another %s sent %q (%v), want no validator", name, f.lastSent(), err)
		}
	}

	f.version = 1
	changed, err := r.RemoteQueryContext(ctx, "R", region)
	if err != nil || f.lastSent() != "v0" || changed.ResultSet.Cell(0, 0).Value() != int64(1) {
		t.Fatalf("read after a change = %+v, %v", changed, err)
	}
	if _, err := r.RemoteQueryContext(ctx, "R", region); err != nil || f.lastSent() != "v1" {
		t.Errorf("the changed answer was not held: sent %q (%v)", f.lastSent(), err)
	}

	// A cached read of B goes through its owner R and is held there; a
	// real-time one goes to B itself and passes on no validator.
	read := core.QueryOptions{SQL: "SELECT N FROM T", Site: "B", Validator: "theirs"}
	for i, want := range []string{"", "v1"} {
		if _, err := r.RemoteQueryContext(ctx, "B", read); err != nil || f.lastSent() != want {
			t.Errorf("site read %d via the republisher sent %q (%v), want %q", i, f.lastSent(), err, want)
		}
	}
	read.Mode = core.ModeRealTime
	if _, err := r.RemoteQueryContext(ctx, "B", read); err != nil || f.lastSent() != "" {
		t.Errorf("a direct site leg sent validator %q (%v)", f.lastSent(), err)
	}
}

// TestRouterRefusesUnaskedNotModified: a 304 that names another validator is
// a failed leg, never a held answer; an answer without a validator lets the
// held one go.
func TestRouterRefusesUnaskedNotModified(t *testing.T) {
	r, f := newHeldFixture(t)
	ctx := context.Background()
	q := core.QueryOptions{SQL: "SELECT N FROM T", Site: "R"}
	if _, err := r.RemoteQueryContext(ctx, "R", q); err != nil {
		t.Fatal(err)
	}
	f.etag = "v9"
	if resp, err := r.RemoteQueryContext(ctx, "R", q); err == nil {
		t.Fatalf("a 304 naming another validator served %+v", resp)
	}
	if st := r.Stats(); st.NotModified != 0 || st.RemoteFailures != 1 {
		t.Errorf("NotModified = %d, RemoteFailures = %d, want 0 and 1", st.NotModified, st.RemoteFailures)
	}
	f.etag, f.noETag = "", true
	f.version = 1
	if _, err := r.RemoteQueryContext(ctx, "R", q); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RemoteQueryContext(ctx, "R", q); err != nil || f.lastSent() != "" || r.held.count() != 0 {
		t.Errorf("after an answer without a validator: sent %q (%v), %d held", f.lastSent(), err, r.held.count())
	}
}

// TestRouterDropsHeldAnswersOfDepartedRepublishers: a re-list of the
// directory drops what endpoints no longer registered as republishers gave.
func TestRouterDropsHeldAnswersOfDepartedRepublishers(t *testing.T) {
	d := NewDirectory(0, nil)
	ctx := context.Background()
	_ = d.RegisterContext(ctx, Registration{Name: "R", Endpoint: "http://r", Role: RoleRepublisher})
	_ = d.RegisterContext(ctx, Registration{Name: "R2", Endpoint: "http://r2", Role: RoleRepublisher})
	now := time.Unix(1000, 0)
	f := &fakeRepublisher{t: t, now: &now}
	r := NewRouter(d, f.exec, "A", Config{LookupTTL: time.Second, Clock: func() time.Time { return now }})
	for _, target := range []string{"R", "R2"} {
		if _, err := r.RemoteQueryContext(ctx, target, core.QueryOptions{SQL: "SELECT N FROM T", Site: target}); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.held.count(); n != 2 {
		t.Fatalf("%d answers held, want 2", n)
	}
	_ = d.DeregisterContext(ctx, "R2")
	now = now.Add(2 * time.Second)
	if _, err := r.RemoteQueryContext(ctx, "R", core.QueryOptions{SQL: "SELECT N FROM T", Site: "R"}); err != nil {
		t.Fatal(err)
	}
	if n := r.held.count(); n != 1 {
		t.Errorf("%d answers held after R2 left, want R's 1", n)
	}
}

// count is how many answers h holds.
func (h *heldAnswers) count() int {
	n, _ := h.size()
	return n
}

// TestHeldAnswersFitTheirBudget: the held bytes never pass heldBytes,
// whatever the answers: large ones, empty ones, or empty ones under long
// keys and SQL. An answer larger than the budget is not held, and a held
// answer is found with no allocation.
func TestHeldAnswersFitTheirBudget(t *testing.T) {
	var h heldAnswers
	fits := func(what string) {
		t.Helper()
		if n, b := h.size(); b > heldBytes || b < n*heldEntryBytes {
			t.Fatalf("%s: %d answers held in %d bytes, budget %d", what, n, b, heldBytes)
		}
	}
	third := intRows(t, heldBytes/8/3+1, 0)
	for i := 0; i < 5; i++ {
		h.put([]byte(fmt.Sprint("k", i)), "http://r", &core.Response{ResultSet: third, Validator: "v"}, time.Time{})
		fits("a third of the budget each")
	}
	if n := h.count(); n != 2 {
		t.Errorf("%d answers of a third of the budget held, want 2", n)
	}
	h.put([]byte("k0"), "http://r", &core.Response{ResultSet: intRows(t, heldBytes/8+1, 0), Validator: "v"}, time.Time{})
	if e, _ := h.get([]byte("k0")); e != nil {
		t.Error("an answer larger than the budget was held")
	}

	empty := intRows(t, 0, 0)
	most := heldBytes / heldEntryBytes
	for i := 0; i < 2*most; i++ {
		h.put([]byte(fmt.Sprint("empty", i)), "http://r", &core.Response{ResultSet: empty, Validator: "v", SQL: "SELECT N FROM T WHERE N < 0"}, time.Time{})
	}
	fits("empty answers")
	if n := h.count(); n > most || n < most/2 {
		t.Errorf("%d empty answers held, want at most %d and most of them", n, most)
	}
	h = heldAnswers{}
	long := strings.Repeat("x", 64<<10)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprint(i, long)
		h.put([]byte(key), "http://r", &core.Response{ResultSet: empty, Validator: "v", SQL: key}, time.Time{})
	}
	fits("empty answers under 64 KiB keys")
	if n, want := h.count(), heldBytes/(128<<10); n > want {
		t.Errorf("%d answers under 64 KiB keys and SQL held, want at most %d", n, want)
	}

	req := core.QueryOptions{SQL: "SELECT * FROM Processor", Site: "R", Region: []string{"s1", "s2", "s3"},
		Principal: security.Principal{Name: "u", Roles: []string{"operator"}, Site: "A"}}
	var buf [256]byte
	h.put(appendHeldKey(buf[:0], "http://r", &req), "http://r", &core.Response{ResultSet: intRows(t, 1, 0), Validator: "v"}, time.Time{})
	if allocs := testing.AllocsPerRun(100, func() {
		if e, _ := h.get(appendHeldKey(buf[:0], "http://r", &req)); e == nil {
			t.Fatal("held answer not found")
		}
	}); allocs != 0 {
		t.Errorf("finding a held answer allocated %.0f times", allocs)
	}
}
