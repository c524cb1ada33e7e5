package gma

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"gridrm/internal/core"
)

// TestFanoutPlanCoversEverySiteOnce is a seeded property test over random
// memberships: sites, republishers and the local site join, drain and
// re-register (at a new endpoint, sometimes in a new role) between plans,
// and the router's copy of the directory is sometimes fresh and sometimes
// re-listed. Every plan covers each non-local site of
// the snapshot it was made from exactly once, directly or in one region
// leg, never the local site, and targets only that snapshot's
// republishers with its region legs; and the plan the router keeps with its
// copy is the plan computed afresh from that copy.
func TestFanoutPlanCoversEverySiteOnce(t *testing.T) {
	const local = "local"
	roles := []Role{RoleSite, RoleSite, RoleSite, RoleRepublisher}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := NewDirectory(0, nil)
		now := time.Unix(1000, 0)
		r := NewRouter(dir, nil, local, Config{LookupTTL: 10 * time.Second, Clock: func() time.Time { return now }})
		var names []string
		register := func(name string, role Role) {
			endpoint := fmt.Sprintf("http://%s/%d", name, rng.Intn(1000))
			if err := dir.RegisterContext(context.Background(), Registration{Name: name, Endpoint: endpoint, Role: role}); err != nil {
				t.Fatal(err)
			}
		}
		register(local, RoleSite)
		names = append(names, local)
		for step := 0; step < 60; step++ {
			for n := rng.Intn(3); n >= 0; n-- {
				switch op := rng.Intn(10); {
				case op < 5: // join
					name := fmt.Sprintf("m%d", len(names))
					names = append(names, name)
					register(name, roles[rng.Intn(len(roles))])
				case op < 7: // drain
					_ = dir.DeregisterContext(context.Background(), names[rng.Intn(len(names))])
				default: // re-register, sometimes in a new role
					name := names[rng.Intn(len(names))]
					if name == local {
						register(name, RoleSite)
					} else {
						register(name, roles[rng.Intn(len(roles))])
					}
				}
			}
			now = now.Add(time.Duration(rng.Intn(15)) * time.Second)
			legs, err := r.FanoutPlan(context.Background())
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			s := r.kept()
			if err := planCovers(s, local, legs); err != nil {
				t.Fatalf("seed %d step %d: %v\nlegs %+v", seed, step, err, legs)
			}
			if fresh := s.plan(local); !reflect.DeepEqual(legs, fresh) {
				t.Fatalf("seed %d step %d: the kept plan %+v is not the plan of its copy %+v", seed, step, legs, fresh)
			}
		}
	}
}

// planCovers checks one plan against the snapshot it was made from.
func planCovers(s *snapshot, local string, legs []core.FanoutLeg) error {
	covered := make(map[string]int)
	for _, leg := range legs {
		if !leg.Republisher {
			covered[leg.Target]++
			continue
		}
		if reg, ok := s.find(leg.Target); !ok || reg.Role != RoleRepublisher {
			return fmt.Errorf("region leg targets %q, not a republisher of the snapshot", leg.Target)
		}
		if len(leg.Covers) == 0 {
			return fmt.Errorf("region leg %q covers nothing", leg.Target)
		}
		for _, site := range leg.Covers {
			covered[site]++
		}
	}
	for _, reg := range s.regs {
		if reg.Role != RoleSite || reg.Name == local {
			continue
		}
		if covered[reg.Name] != 1 {
			return fmt.Errorf("site %q covered %d times", reg.Name, covered[reg.Name])
		}
		delete(covered, reg.Name)
	}
	for name, n := range covered {
		return fmt.Errorf("%q is covered %d times but is not a non-local site", name, n)
	}
	return nil
}

// TestFanoutPlanIsMadeOncePerCopy: every FanoutPlan on a kept copy of the
// directory returns the same legs and allocates nothing; the first call
// after the copy is listed again sees a site join, and then one leave; and
// a router that keeps no copy still plans.
func TestFanoutPlanIsMadeOncePerCopy(t *testing.T) {
	ctx := context.Background()
	dir := NewDirectory(0, nil)
	for _, reg := range []Registration{
		{Name: "local", Role: RoleSite}, {Name: "s1", Role: RoleSite}, {Name: "s2", Role: RoleSite},
		{Name: "r1", Role: RoleRepublisher}, {Name: "r2", Role: RoleRepublisher},
	} {
		reg.Endpoint = "http://" + reg.Name
		if err := dir.RegisterContext(ctx, reg); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Unix(1000, 0)
	r := NewRouter(dir, nil, "local", Config{LookupTTL: 10 * time.Second, Clock: func() time.Time { return now }})
	covered := func(legs []core.FanoutLeg) (sites []string) {
		for _, leg := range legs {
			sites = append(sites, leg.Covers...)
		}
		slices.Sort(sites)
		return sites
	}
	first, err := r.FanoutPlan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := covered(first); !slices.Equal(got, []string{"s1", "s2"}) {
		t.Fatalf("plan covers %v", got)
	}
	again, _ := r.FanoutPlan(ctx)
	if &again[0] != &first[0] {
		t.Error("a second plan over the kept copy was built again")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { _, _ = r.FanoutPlan(ctx) }); n != 0 {
			t.Errorf("FanoutPlan allocates %v per call on a kept copy", n)
		}
	}

	if err := dir.RegisterContext(ctx, Registration{Name: "s3", Endpoint: "http://s3", Role: RoleSite}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(11 * time.Second)
	joined, _ := r.FanoutPlan(ctx)
	if got := covered(joined); !slices.Equal(got, []string{"s1", "s2", "s3"}) {
		t.Errorf("after a join the plan covers %v", got)
	}
	if err := dir.DeregisterContext(ctx, "s1"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(11 * time.Second)
	left, _ := r.FanoutPlan(ctx)
	if got := covered(left); !slices.Equal(got, []string{"s2", "s3"}) {
		t.Errorf("after a leave the plan covers %v", got)
	}
	if got := covered(first); !slices.Equal(got, []string{"s1", "s2"}) {
		t.Errorf("a newer copy's plan changed an older one's legs: %v", got)
	}

	// A router that keeps no copy plans each call from the list it makes.
	bare := NewRouter(dir, nil, "local", Config{LookupTTL: -1})
	if got, _ := bare.FanoutPlan(ctx); !slices.Equal(covered(got), []string{"s2", "s3"}) {
		t.Errorf("a router that keeps no copy plans %v", covered(got))
	}
}
