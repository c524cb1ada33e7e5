package gma

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/httpjson"
	"gridrm/internal/metrics"
)

// upkeepFleet serves a directory holding the benchmark's federation — nine
// sites registering every GLUE group and two republishers — over loopback,
// with a client that has listed it once.
func upkeepFleet(t *testing.T) (*Directory, *DirectoryClient, string) {
	t.Helper()
	d := NewDirectory(0, nil)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	ctx := context.Background()
	for i := 0; i < 9; i++ {
		if err := d.RegisterContext(ctx, Registration{Name: fmt.Sprintf("site-%d", i), Endpoint: fmt.Sprintf("http://127.0.0.1:%d", 9000+i), Groups: glue.GroupNames()}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 2; i++ {
		if err := d.RegisterContext(ctx, Registration{Name: fmt.Sprintf("repub-%d", i), Endpoint: fmt.Sprintf("http://127.0.0.1:%d", 9100+i), Role: RoleRepublisher}); err != nil {
			t.Fatal(err)
		}
	}
	c := &DirectoryClient{BaseURL: srv.URL}
	regs, err := c.ListContext(ctx)
	if err != nil || len(regs) != 11 {
		t.Fatalf("list = %d records, %v", len(regs), err)
	}
	return d, c, Digest(regs)
}

// TestDirectoryUpkeepAllocBudget holds what a quiet federation's directory
// upkeep costs, client and directory together on loopback: an unchanged
// list of 11 members and an unchanged watch are 304s with no body, and a
// heartbeat's record encodes and decodes itself. A heartbeat through a
// MultiDirectory of one replica, the in-process directory, costs what the
// replica does and one closure more: no goroutine, error slice or WaitGroup
// (four allocations more before).
func TestDirectoryUpkeepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	d, c, digest := upkeepFleet(t)
	ctx := context.Background()
	heartbeat := Registration{Name: "site-3", Endpoint: "http://127.0.0.1:9003", Groups: glue.GroupNames()}
	lone := NewMultiDirectory(d)
	for _, tc := range []struct {
		name   string
		budget float64
		call   func() error
	}{
		{"unchanged list", 90, func() error { _, err := c.ListContext(ctx); return err }},
		{"unchanged watch", 100, func() error { _, err := c.WatchContext(ctx, digest, 0); return err }},
		{"heartbeat", 95, func() error { return c.RegisterContext(ctx, heartbeat) }},
		{"one-replica heartbeat", 1, func() error { return lone.RegisterContext(ctx, heartbeat) }},
	} {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := tc.call(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocations, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
	if regs, _ := d.ListContext(ctx); Digest(regs) != digest {
		t.Fatal("a heartbeat changed the membership")
	}
}

// TestDirectoryDeletesExpiredRecords: a record past its TTL is deleted, not
// only hidden, by the next directory operation, so a fleet whose members
// come and go under fresh names does not grow every read without bound.
func TestDirectoryDeletesExpiredRecords(t *testing.T) {
	now := time.Unix(1000, 0)
	d := NewDirectory(time.Second, func() time.Time { return now })
	ctx := context.Background()
	for i := 0; i < 10000; i++ {
		if err := d.RegisterContext(ctx, Registration{Name: fmt.Sprintf("m-%05d", i), Endpoint: "http://m"}); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(2 * time.Second)
	regs, err := d.ListContext(ctx)
	if err != nil || len(regs) != 0 {
		t.Fatalf("list after expiry = %d records, %v", len(regs), err)
	}
	d.mu.Lock()
	held := len(d.members)
	d.mu.Unlock()
	if held != 0 {
		t.Errorf("directory still holds %d expired records", held)
	}
}

// countingDirectory serves d and counts the 304s it answers.
func countingDirectory(t *testing.T, d *Directory) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var notModified atomic.Int64
	h := d.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(rec, r)
		if rec.status == http.StatusNotModified {
			notModified.Add(1)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, &notModified
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// TestDirectoryClientRevalidatesItsList: the client sends the digest of the
// list it keeps, and returns that list for a 304 naming it. A 304 to a
// request that sent no digest, or naming another one, is an error: the
// client has no list the directory could mean.
func TestDirectoryClientRevalidatesItsList(t *testing.T) {
	d, c, _ := upkeepFleet(t)
	ctx := context.Background()
	first, err := c.ListContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.ListContext(ctx)
	if err != nil || len(again) != len(first) || &again[0] != &first[0] {
		t.Fatalf("unchanged list: %d records (kept list returned: %v), %v", len(again), len(again) > 0 && &again[0] == &first[0], err)
	}
	if err := d.RegisterContext(ctx, Registration{Name: "site-9", Endpoint: "http://127.0.0.1:9009"}); err != nil {
		t.Fatal(err)
	}
	changed, err := c.WatchContext(ctx, Digest(first), time.Second)
	if err != nil || len(changed) != len(first)+1 {
		t.Fatalf("changed watch = %d records, %v", len(changed), err)
	}

	// A directory that lists with the ETag "kept" once, when kept is set,
	// and then answers every request 304 naming "other".
	for _, kept := range []bool{false, true} {
		listed := false
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if kept && !listed {
				listed = true
				w.Header().Set("ETag", `"kept"`)
				httpjson.WriteJSON(w, registrations(first))
				return
			}
			w.Header().Set("ETag", `"other"`)
			w.WriteHeader(http.StatusNotModified)
		}))
		c := &DirectoryClient{BaseURL: srv.URL}
		if kept {
			if _, err := c.ListContext(ctx); err != nil {
				t.Fatalf("first list: %v", err)
			}
		}
		if regs, err := c.ListContext(ctx); err == nil {
			t.Errorf("kept list %v: a 304 naming another digest returned %d records", kept, len(regs))
		}
		srv.Close()
	}
}

// metricValue scrapes reg and returns the sample of the series name.
func metricValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no %s on the scrape", name)
	return 0
}

// revalidationRig is a router over an HTTP directory of three sites and a
// republisher, on a clock the test moves; the router has planned once.
type revalidationRig struct {
	dir         *Directory
	srv         *httptest.Server
	notModified *atomic.Int64
	router      *Router
	reg         *metrics.Registry
	now         *time.Time
	legs        []core.FanoutLeg
}

func newRevalidationRig(t *testing.T) *revalidationRig {
	t.Helper()
	now := time.Unix(1000, 0)
	rig := &revalidationRig{dir: NewDirectory(0, nil), reg: metrics.NewRegistry(), now: &now}
	rig.srv, rig.notModified = countingDirectory(t, rig.dir)
	ctx := context.Background()
	for _, r := range []Registration{
		{Name: "a", Endpoint: "http://a"}, {Name: "b", Endpoint: "http://b"}, {Name: "c", Endpoint: "http://c"},
		{Name: "repub-1", Endpoint: "http://r1", Role: RoleRepublisher},
	} {
		if err := rig.dir.RegisterContext(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	rig.router = NewRouter(&DirectoryClient{BaseURL: rig.srv.URL}, nil, "a", Config{LookupTTL: time.Second, Clock: func() time.Time { return *rig.now }})
	rig.router.RegisterMetrics(rig.reg)
	var err error
	if rig.legs, err = rig.router.FanoutPlan(ctx); err != nil || len(rig.legs) != 1 {
		t.Fatalf("first plan = %+v, %v", rig.legs, err)
	}
	return rig
}

// TestRouterKeepsItsPlanOnA304: once its copy has aged past LookupTTL the
// router lists again; the directory answers 304 to the digest the client
// kept, and the router keeps its copy — the same plan, ring and held
// answers — and restarts only its age.
func TestRouterKeepsItsPlanOnA304(t *testing.T) {
	rig := newRevalidationRig(t)
	*rig.now = rig.now.Add(2 * time.Second)
	if age := metricValue(t, rig.reg, "gridrm_directory_copy_age_seconds"); age != 2 {
		t.Fatalf("copy age before the re-list = %v, want 2", age)
	}
	legs, err := rig.router.FanoutPlan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rig.notModified.Load() != 1 {
		t.Fatalf("directory answered %d 304s, want 1", rig.notModified.Load())
	}
	if len(legs) != len(rig.legs) || &legs[0] != &rig.legs[0] {
		t.Errorf("a 304 re-planned: %+v, was %+v", legs, rig.legs)
	}
	if age := metricValue(t, rig.reg, "gridrm_directory_copy_age_seconds"); age != 0 {
		t.Errorf("copy age after a 304 = %v, want 0", age)
	}
}

// TestRouterReplansOnAChangedDigest: a membership change is a 200 with a
// new digest, and the router plans anew; once the directory is unreachable
// the router still serves the copy it holds, stale.
func TestRouterReplansOnAChangedDigest(t *testing.T) {
	rig := newRevalidationRig(t)
	ctx := context.Background()
	before := metricValue(t, rig.reg, "gridrm_directory_copy_digest")
	if err := rig.dir.RegisterContext(ctx, Registration{Name: "d", Endpoint: "http://d"}); err != nil {
		t.Fatal(err)
	}
	*rig.now = rig.now.Add(2 * time.Second)
	legs, err := rig.router.FanoutPlan(ctx)
	if err != nil || len(legs) != 1 || len(legs[0].Covers) != 3 {
		t.Fatalf("plan after a join = %+v, %v; want one leg covering b, c and d", legs, err)
	}
	if rig.notModified.Load() != 0 {
		t.Errorf("a changed membership was answered 304")
	}
	if after := metricValue(t, rig.reg, "gridrm_directory_copy_digest"); after == before {
		t.Errorf("copy digest unchanged after a join: %v", after)
	}

	rig.srv.Close()
	*rig.now = rig.now.Add(2 * time.Second)
	stale, err := rig.router.FanoutPlan(ctx)
	if err != nil || len(stale) != 1 || &stale[0] != &legs[0] {
		t.Fatalf("plan with the directory down = %+v, %v; want the held one", stale, err)
	}
	if st := rig.router.Stats(); st.StaleLookups != 1 {
		t.Errorf("stale lookups = %d, want 1", st.StaleLookups)
	}
}

// countingBody is an answer body that counts what is read of it.
type countingBody struct {
	r    io.Reader
	read int
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.read += n
	return n, err
}

func (b *countingBody) Close() error { return nil }

// answerWith is a transport whose every answer is 200 with body, of a
// length it does not declare.
type answerWith struct{ body *countingBody }

func (a answerWith) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Header: http.Header{}, Body: a.body, ContentLength: -1}, nil
}

// listFrom is what a DirectoryClient makes of a directory that answers a
// list with body, and how much of body it read.
func listFrom(body io.Reader) ([]Registration, int, error) {
	b := &countingBody{r: body}
	c := &DirectoryClient{BaseURL: "http://directory", HTTPClient: &http.Client{Transport: answerWith{b}}}
	regs, err := c.ListContext(context.Background())
	return regs, b.read, err
}

// TestDirectoryClientCapsTheList: a directory whose list never ends is read
// to maxDirectoryBody and one byte more, which tells it from a list that
// fits, and refused.
func TestDirectoryClientCapsTheList(t *testing.T) {
	endless := io.MultiReader(strings.NewReader(`[{"name":"a","endpoint":"http://a","groups":["`), zeros{})
	regs, read, err := listFrom(endless)
	if err == nil {
		t.Fatalf("an endless list decoded to %d records", len(regs))
	}
	if read > maxDirectoryBody+1 {
		t.Errorf("read %d bytes of an endless list, cap %d", read, maxDirectoryBody)
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// FuzzRegistrations feeds arbitrary bytes to the client's list decoder, as
// a hostile directory's answer would arrive. The client never panics, reads
// no more than maxDirectoryBody and one byte of it, and yields only records
// with a name, an endpoint and a known role.
func FuzzRegistrations(f *testing.F) {
	good, err := registrations{
		{Name: "a", Endpoint: "http://a", Role: RoleSite, Groups: []string{"Processor", "Memory"}, RegisteredAt: time.Date(2003, 6, 1, 10, 30, 0, 0, time.UTC)},
		{Name: "repub-1", Endpoint: "http://r", Role: RoleRepublisher},
	}.AppendJSON(nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(good), `[]`, `null`, ``, `[null]`, `{}`, `[{}]`,
		`[{"name":"a","endpoint":"http://a"}]`,
		`[{"name":"a","endpoint":"http://a","role":"warp"}]`,
		`[{"name":"","endpoint":"http://a"}]`,
		`[{"name":"a","endpoint":"http://a","owns":["b"],"generation":7,"site":"x"}]`,
		`[{"name":"a","name":"b","endpoint":"http://a"}]`,
		`[{"Name":"a","endpoint":"http://a"}]`,
		`[{"name":"a\u0000","endpoint":"http://a","groups":[null,"Disk","\ud800"]}]`,
		`[{"name":"a","endpoint":"http://a","registeredAt":"yesterday"}]`,
		`[{"name":"a","endpoint":"http://a"},`, `[[[[`, `"\`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		regs, read, err := listFrom(bytes.NewReader(body))
		if read > maxDirectoryBody+1 {
			t.Fatalf("read %d bytes, cap %d", read, maxDirectoryBody)
		}
		if err != nil {
			if regs != nil {
				t.Fatalf("%q: error %v with %d records", body, err, len(regs))
			}
			return
		}
		for _, r := range regs {
			if r.Name == "" || r.Endpoint == "" || !r.Role.valid() {
				t.Fatalf("%q yielded the record %+v", body, r)
			}
		}
	})
}

// TestRegistrationCodecMatchesEncodingJSON: a record and a list write what
// encoding/json writes of Registration's tags, and read back as written.
func TestRegistrationCodecMatchesEncodingJSON(t *testing.T) {
	type plain Registration // Registration's tags, encoded by reflection
	at := time.Date(2003, 6, 1, 10, 30, 0, 123456789, time.FixedZone("BST", 3600))
	list := registrations{
		{Name: "a", Endpoint: "http://a:1", Role: RoleSite, Groups: glue.GroupNames(), RegisteredAt: at},
		{Endpoint: "http://<&>\u2028\"quoted\"", Groups: []string{"Custom", ""}},
		{Name: "repub-1", Endpoint: "http://r", Role: RoleRepublisher, RegisteredAt: at.UTC()},
	}
	plains := make([]plain, len(list))
	for i, r := range list {
		plains[i] = plain(r)
		got, err := r.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(plain(r))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("record %d:\n got %s\nwant %s", i, got, want)
		}
		var back Registration
		if err := back.DecodeJSON(got); err != nil || !back.RegisteredAt.Equal(r.RegisteredAt) {
			t.Fatalf("record %d read back as %+v, %v", i, back, err)
		}
		back.RegisteredAt = r.RegisteredAt
		if !reflect.DeepEqual(back, r) {
			t.Errorf("record %d read back as %+v, want %+v", i, back, r)
		}
	}
	got, err := list.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plains)
	if string(got) != string(want) {
		t.Errorf("list:\n got %s\nwant %s", got, want)
	}
	if null, _ := registrations(nil).AppendJSON(nil); string(null) != "null" {
		t.Errorf("nil list = %s", null)
	}
}
