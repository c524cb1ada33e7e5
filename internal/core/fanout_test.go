package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/schema"
)

// This file holds what the all-sites path builds once instead of per query:
// the entry's sorted source list, the local leg's status array reused as the
// answer's, and a plan shared across queries. Every answer must stay what
// the path built when it copied everything.

const fanoutSQL = "SELECT HostName FROM Processor ORDER BY HostName"

// fanoutVO is siteA (newFixture's entry: a1 and a2 on one source, b1 on
// another) and siteX, siteY and siteZ, two sources each, behind a
// multiRouter; every gateway reads the entry's frozen clock.
func fanoutVO(t *testing.T) (*fixture, *multiRouter) {
	t.Helper()
	f := newFixture(t)
	clock := func() time.Time { return *f.now }
	router := &multiRouter{gateways: map[string]*Gateway{}}
	for _, site := range []string{"siteX", "siteY", "siteZ"} {
		gw := New(Config{Name: site, Clock: clock})
		t.Cleanup(gw.Close)
		drv := &memDriver{name: "jdbc-mem", proto: "mem", hosts: []string{site + "-h"}, load: 2.0}
		if err := gw.RegisterDriver(drv, drv.schema()); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 2; i++ {
			if err := gw.AddSource(SourceConfig{URL: fmt.Sprintf("gridrm:mem://%s:%d", site, i)}); err != nil {
				t.Fatal(err)
			}
		}
		router.gateways[site] = gw
	}
	f.g.SetGlobalRouter(router)
	return f, router
}

// answer queries one gateway for its own sources, twice, so the second
// answer comes from the cache the fan-out will read too.
func answer(t *testing.T, g *Gateway, admin QueryOptions) *Response {
	t.Helper()
	req := admin
	req.SQL = fanoutSQL
	var resp *Response
	for range 2 {
		var err error
		if resp, err = g.QueryContext(context.Background(), req); err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
	}
	return resp
}

// leg is one fan-out leg as the collector sees it: statuses already under
// their label, then a direct leg's own statuses, to be labelled.
type leg struct {
	statuses []SourceStatus
	label    string
	sources  []SourceStatus
}

// copiedStatuses is how the answer's statuses were assembled when every
// query copied them into a new array: the plan error, then each leg's in leg
// order, a direct leg's each under "site:<name> ".
func copiedStatuses(planErr error, legs []leg) []SourceStatus {
	var out []SourceStatus
	if planErr != nil {
		out = append(out, SourceStatus{Source: "plan", Err: planErr.Error()})
	}
	for _, l := range legs {
		out = append(out, l.statuses...)
		for _, st := range l.sources {
			st.Source = l.label + " " + st.Source
			out = append(out, st)
		}
	}
	return out
}

// direct is an answered direct leg to g.
func direct(t *testing.T, g *Gateway, admin QueryOptions) leg {
	return leg{label: "site:" + g.Name(), sources: answer(t, g, admin).Sources}
}

// gatedDriver is a memDriver whose AcceptsURL, once armed, blocks
// until the gate opens: a query that must pick a driver for a source no
// harvest has bound yet hangs past any deadline, as a hung local leg does.
type gatedDriver struct {
	*memDriver
	armed atomic.Bool
	gate  chan struct{}
}

func (d *gatedDriver) AcceptsURL(url string) bool {
	if d.armed.Load() {
		<-d.gate
	}
	return d.memDriver.AcceptsURL(url)
}

// TestAllSitesStatusesMatchCopiedConstruction runs the all-sites query on
// every path the answer's statuses can take, twice each, and compares the
// rows and every status, in order and field by field, with the statuses the
// legs' own answers give when copied the old way.
func TestAllSitesStatusesMatchCopiedConstruction(t *testing.T) {
	down := errors.New("republisher down")
	for _, c := range []struct {
		name string
		// set up arranges the case and returns the entry, the query's
		// context timeout, the expected legs and plan error, and the hosts.
		setUp func(t *testing.T) (g *Gateway, admin QueryOptions, timeout time.Duration, planErr error, legs []leg, hosts []string)
	}{
		{"direct legs only", func(t *testing.T) (*Gateway, QueryOptions, time.Duration, error, []leg, []string) {
			f, r := fanoutVO(t)
			admin := QueryOptions{Principal: f.admin}
			return f.g, admin, 0, nil, []leg{direct(t, f.g, admin),
					direct(t, r.gateways["siteX"], admin), direct(t, r.gateways["siteY"], admin), direct(t, r.gateways["siteZ"], admin)},
				[]string{"a1", "a2", "b1", "siteX-h", "siteX-h", "siteY-h", "siteY-h", "siteZ-h", "siteZ-h"}
		}},
		{"region legs", func(t *testing.T) (*Gateway, QueryOptions, time.Duration, error, []leg, []string) {
			f, r := fanoutVO(t)
			r.plan = []FanoutLeg{
				{Target: "repub-1", Republisher: true, Covers: []string{"siteX", "siteY"}},
				{Target: "repub-2", Republisher: true, Covers: []string{"siteZ"}},
			}
			admin := QueryOptions{Principal: f.admin}
			return f.g, admin, 0, nil, []leg{direct(t, f.g, admin),
					{statuses: []SourceStatus{{Source: "repub:repub-1 sites:2"}}},
					{statuses: []SourceStatus{{Source: "repub:repub-2 sites:1"}}}},
				[]string{"a1", "a2", "b1", "siteX-h", "siteX-h", "siteY-h", "siteY-h", "siteZ-h", "siteZ-h"}
		}},
		{"a failed region leg degrades to direct legs", func(t *testing.T) (*Gateway, QueryOptions, time.Duration, error, []leg, []string) {
			f, r := fanoutVO(t)
			r.plan = []FanoutLeg{
				{Target: "repub-1", Republisher: true, Covers: []string{"siteY"}},
				{Target: "repub-2", Republisher: true, Covers: []string{"siteX"}},
				{Target: "siteZ"},
			}
			r.fail = map[string]error{"repub-1": down}
			admin := QueryOptions{Principal: f.admin}
			y := direct(t, r.gateways["siteY"], admin)
			degraded := copiedStatuses(nil, []leg{{statuses: []SourceStatus{{Source: "repub:repub-1", Err: down.Error()}}}, y})
			return f.g, admin, 0, nil, []leg{direct(t, f.g, admin),
					{statuses: degraded},
					{statuses: []SourceStatus{{Source: "repub:repub-2 sites:1"}}},
					direct(t, r.gateways["siteZ"], admin)},
				[]string{"a1", "a2", "b1", "siteX-h", "siteX-h", "siteY-h", "siteY-h", "siteZ-h", "siteZ-h"}
		}},
		{"plan error", func(t *testing.T) (*Gateway, QueryOptions, time.Duration, error, []leg, []string) {
			f, r := fanoutVO(t)
			r.planErr = errors.New("directory unreachable")
			admin := QueryOptions{Principal: f.admin}
			return f.g, admin, 0, r.planErr, []leg{direct(t, f.g, admin)}, []string{"a1", "a2", "b1"}
		}},
		{"a failed local leg", func(t *testing.T) (*Gateway, QueryOptions, time.Duration, error, []leg, []string) {
			f, r := fanoutVO(t)
			bare := New(Config{Name: "siteA", Clock: func() time.Time { return *f.now }})
			t.Cleanup(bare.Close)
			bare.SetGlobalRouter(r)
			admin := QueryOptions{Principal: f.admin}
			_, err := bare.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: fanoutSQL})
			if err == nil {
				t.Fatal("a gateway with no sources answered")
			}
			return bare, admin, 0, nil, []leg{{statuses: []SourceStatus{{Source: "site:siteA", Err: err.Error()}}},
					direct(t, r.gateways["siteX"], admin), direct(t, r.gateways["siteY"], admin), direct(t, r.gateways["siteZ"], admin)},
				[]string{"siteX-h", "siteX-h", "siteY-h", "siteY-h", "siteZ-h", "siteZ-h"}
		}},
		{"a timed-out local leg", func(t *testing.T) (*Gateway, QueryOptions, time.Duration, error, []leg, []string) {
			f, r := fanoutVO(t)
			hung := New(Config{Name: "siteA", Clock: func() time.Time { return *f.now }})
			t.Cleanup(hung.Close)
			drv := &gatedDriver{memDriver: &memDriver{name: "jdbc-gated", proto: "gated", hosts: []string{"g1"}}, gate: make(chan struct{})}
			if err := hung.RegisterDriver(drv, drv.schema()); err != nil {
				t.Fatal(err)
			}
			if err := hung.AddSource(SourceConfig{URL: "gridrm:gated://g:1"}); err != nil {
				t.Fatal(err)
			}
			drv.armed.Store(true)
			t.Cleanup(func() { close(drv.gate) })
			hung.SetGlobalRouter(r)
			admin := QueryOptions{Principal: f.admin}
			return hung, admin, 300 * time.Millisecond, nil, []leg{
					{statuses: []SourceStatus{{Source: "site:siteA", Err: ErrTimedOut + ": " + context.DeadlineExceeded.Error()}}},
					direct(t, r.gateways["siteX"], admin), direct(t, r.gateways["siteY"], admin), direct(t, r.gateways["siteZ"], admin)},
				[]string{"siteX-h", "siteX-h", "siteY-h", "siteY-h", "siteZ-h", "siteZ-h"}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, admin, timeout, planErr, legs, hosts := c.setUp(t)
			want := copiedStatuses(planErr, legs)
			for run := 1; run <= 2; run++ {
				ctx := context.Background()
				if timeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, timeout)
					defer cancel()
				}
				req := admin
				req.SQL, req.Site = fanoutSQL, AllSites
				resp, err := g.QueryContext(ctx, req)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if got := hostsOf(resp); !slices.Equal(got, hosts) {
					t.Errorf("run %d: hosts %v, want %v", run, got, hosts)
				}
				if !reflect.DeepEqual(resp.Sources, want) {
					t.Errorf("run %d: statuses\n got %+v\nwant %+v", run, resp.Sources, want)
				}
			}
		})
	}
}

// TestAllSitesConcurrentAnswers runs all-sites queries from many goroutines
// at once, with a region leg and a direct leg: each answer's statuses are
// its own, whatever the others relabel (go test -race).
func TestAllSitesConcurrentAnswers(t *testing.T) {
	f, r := fanoutVO(t)
	r.plan = []FanoutLeg{
		{Target: "repub-1", Republisher: true, Covers: []string{"siteX", "siteY"}},
		{Target: "siteZ"},
	}
	admin := QueryOptions{Principal: f.admin}
	want := copiedStatuses(nil, []leg{direct(t, f.g, admin),
		{statuses: []SourceStatus{{Source: "repub:repub-1 sites:2"}}}, direct(t, r.gateways["siteZ"], admin)})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: fanoutSQL, Site: AllSites})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(resp.Sources, want) || resp.ResultSet.Len() != 9 {
					t.Errorf("answer %d: %d rows, statuses %+v, want %+v", i, resp.ResultSet.Len(), resp.Sources, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// inOrder is urls sorted, the registry's order.
func inOrder(urls ...string) []string {
	slices.Sort(urls)
	return urls
}

// procOnlyDriver maps Processor and nothing else.
type procOnlyDriver struct{ *memDriver }

func (d procOnlyDriver) schema() *schema.DriverSchema {
	ds := d.memDriver.schema()
	delete(ds.Groups, glue.GroupMemory)
	return ds
}

// TestTargetSourcesSharesTheRegistry: when every source maps the group,
// targetSources answers with the registry's sorted list and allocates
// nothing; the next call after an add, a remove, or under a group one
// source's driver does not map, sees the change.
func TestTargetSourcesSharesTheRegistry(t *testing.T) {
	f := newFixture(t)
	f.query(t, "SELECT * FROM Processor", ModeRealTime) // binds each source's driver
	proc, _ := glue.Lookup(glue.GroupProcessor)
	mem, _ := glue.Lookup(glue.GroupMemory)
	targets := func(g *glue.Group) []string {
		t.Helper()
		urls, err := f.g.targetSources(QueryOptions{}, g)
		if err != nil {
			t.Fatal(err)
		}
		return urls
	}
	first := targets(proc)
	if !slices.Equal(first, inOrder(f.urlA, f.urlB)) {
		t.Fatalf("targets %v", first)
	}
	if &targets(proc)[0] != &first[0] {
		t.Error("a second call copied the registry's list")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { _, _ = f.g.targetSources(QueryOptions{}, proc) }); n != 0 {
			t.Errorf("targetSources allocates %v per call when every source maps the group", n)
		}
	}

	const urlC = "gridrm:mem://c:1"
	if err := f.g.AddSource(SourceConfig{URL: urlC}); err != nil {
		t.Fatal(err)
	}
	if got := targets(proc); !slices.Equal(got, inOrder(f.urlA, urlC, f.urlB)) {
		t.Errorf("after an add: %v", got)
	}
	if err := f.g.RemoveSource(f.urlA); err != nil {
		t.Fatal(err)
	}
	if got := targets(proc); !slices.Equal(got, inOrder(urlC, f.urlB)) {
		t.Errorf("after a remove: %v", got)
	}

	drv := procOnlyDriver{&memDriver{name: "jdbc-proc", proto: "proc", hosts: []string{"p1"}}}
	if err := f.g.RegisterDriver(drv, drv.schema()); err != nil {
		t.Fatal(err)
	}
	const urlP = "gridrm:proc://p:1"
	if err := f.g.AddSource(SourceConfig{URL: urlP, Drivers: []string{"jdbc-proc"}}); err != nil {
		t.Fatal(err)
	}
	shared := targets(proc)
	if !slices.Equal(shared, inOrder(urlC, f.urlB, urlP)) {
		t.Errorf("Processor targets %v", shared)
	}
	if got := targets(mem); !slices.Equal(got, inOrder(urlC, f.urlB)) {
		t.Errorf("Memory targets %v: the Processor-only source must be dropped", got)
	}
	if !slices.Equal(shared, inOrder(urlC, f.urlB, urlP)) {
		t.Errorf("dropping a source wrote to the shared list: %v", shared)
	}
	if got := f.g.sortedSources(); &got[0] != &shared[0] {
		t.Error("sortedSources copied the registry's list")
	}
}
