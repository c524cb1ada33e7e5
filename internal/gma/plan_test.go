package gma

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gridrm/internal/core"
)

// TestFanoutPlanCoversEverySiteOnce is a seeded property test over random
// memberships: sites, republishers, entry records and the local site
// join, drain and re-register (at a new endpoint, sometimes in a new role)
// between plans, and the router's copy of the directory is sometimes
// fresh and sometimes re-listed. Every plan covers each non-local site of
// the snapshot it was made from exactly once, directly or in one region
// leg, never the local site, and targets only that snapshot's
// republishers with its region legs.
func TestFanoutPlanCoversEverySiteOnce(t *testing.T) {
	const local = "local"
	roles := []Role{RoleSite, RoleSite, RoleSite, RoleRepublisher, RoleEntry}
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
			if err := planCovers(r.kept(), local, legs); err != nil {
				t.Fatalf("seed %d step %d: %v\nlegs %+v", seed, step, err, legs)
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
