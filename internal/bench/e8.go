package bench

import (
	"fmt"

	"gridrm/internal/security"
)

func init() {
	register(Experiment{
		ID:     "e8",
		Anchor: "§2: coarse and fine grained security layers",
		Claim: "per-query CGSL/FGSL checks cost microseconds even with large rule " +
			"sets (first-match-wins scan), so multi-level security does not dominate " +
			"the query path; Defer decisions route to the owning gateway",
		run: runE8,
	})
}

func runE8(r *run) error {
	ruleCounts := pick(r.quick, []int{10, 1000}, []int{10, 100, 1000, 10000})
	alice := security.Principal{Name: "alice", Roles: []string{"operator"}}
	nobody := security.Principal{Name: "zz-nobody"}

	t := newTable(r.w, "rules", "coarse allow (first rule)", "coarse deny (full scan)", "fine allow", "fine deny")
	for _, n := range ruleCounts {
		coarse := security.NewCoarsePolicy(security.Deny)
		coarse.Add(security.CoarseRule{Principal: "alice", Decision: security.Allow})
		fine := security.NewFinePolicy(security.Deny)
		fine.Add(security.FineRule{Principal: "alice", Source: "gridrm:snmp://%", Decision: security.Allow})
		for i := 1; i < n; i++ {
			user := fmt.Sprintf("user%05d", i)
			coarse.Add(security.CoarseRule{Principal: user, Decision: security.Allow})
			fine.Add(security.FineRule{Principal: user, Decision: security.Allow})
		}
		coarseCheck := func(p security.Principal) func() error {
			return func() error { coarse.Check(p, security.OpQueryRealTime); return nil }
		}
		fineCheck := func(p security.Principal) func() error {
			return func() error { fine.Check(p, "gridrm:snmp://h:1", "Processor"); return nil }
		}
		fast := r.measure(fmt.Sprintf("coarse-allow/rules-%d", n), loop(coarseCheck(alice)))
		slow := r.measure(fmt.Sprintf("coarse-deny/rules-%d", n), loop(coarseCheck(nobody)))
		fAllow := r.measure(fmt.Sprintf("fine-allow/rules-%d", n), loop(fineCheck(alice)))
		fDeny := r.measure(fmt.Sprintf("fine-deny/rules-%d", n), loop(fineCheck(nobody)))
		t.row(n, perOp(fast), perOp(slow), perOp(fAllow), perOp(fDeny))
	}
	t.flush()

	// Defer semantics for the gateway hierarchy.
	fine := security.NewFinePolicy(security.Allow)
	fine.Add(security.FineRule{Source: "gridrm:remote://%", Decision: security.Defer})
	d := fine.Check(alice, "gridrm:remote://elsewhere:1", "Memory")
	fmt.Fprintf(r.w, "\ndeferred decision for a remote resource: %s (the owning gateway decides)\n", d)
	fmt.Fprintf(r.w, "policy stats: %+v\n", fine.Stats())
	return nil
}
