package gma

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRegistrarRestart is the regression test for the closed-stop-channel
// bug: a Stop→Start cycle must yield a registrar that registers and keeps
// refreshing, instead of a refresh loop that exits immediately because it
// observes the previous run's closed stop channel.
func TestRegistrarRestart(t *testing.T) {
	d := NewDirectory(0, nil)
	r := NewRegistrar(d, Registration{Name: "A", Endpoint: "http://a"}, 10*time.Millisecond)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if _, ok, _ := d.LookupContext(context.Background(), "A"); ok {
		t.Fatal("still registered after Stop")
	}

	if err := r.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer r.Stop()
	first, ok, _ := d.LookupContext(context.Background(), "A")
	if !ok {
		t.Fatal("not registered after restart")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p, _, _ := d.LookupContext(context.Background(), "A"); p.RegisteredAt.After(first.RegisteredAt) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("restarted registrar never refreshed the record")
}

// TestRegistrarSurvivesDirectoryOutage: Start must not fail when the
// directory is down — registration lands via background retries once the
// directory comes back, and the state listener sees the flips.
func TestRegistrarSurvivesDirectoryOutage(t *testing.T) {
	dir := newFlakyDir()
	dir.setDown(true)
	r := NewRegistrar(dir, Registration{Name: "A", Endpoint: "http://a"}, 40*time.Millisecond)

	var mu sync.Mutex
	var flips []bool
	r.SetStateListener(func(reachable bool, err error) {
		if !reachable && err == nil {
			t.Error("unreachable flip without an error")
		}
		mu.Lock()
		flips = append(flips, reachable)
		mu.Unlock()
	})

	if err := r.Start(); err != nil {
		t.Fatalf("Start failed for a transient outage: %v", err)
	}
	defer r.Stop()
	if r.Stats().Reachable {
		t.Error("Reachable while the directory is down")
	}
	mu.Lock()
	if len(flips) != 1 || flips[0] {
		t.Errorf("initial flips = %v, want [false]", flips)
	}
	mu.Unlock()

	// The directory recovers; the backoff loop must land the registration.
	dir.setDown(false)
	deadline := time.Now().Add(3 * time.Second)
	for !r.Stats().Reachable {
		if time.Now().After(deadline) {
			t.Fatal("registration never landed after recovery")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok, _ := dir.Directory.LookupContext(context.Background(), "A"); !ok {
		t.Error("directory has no record despite Reachable")
	}
	mu.Lock()
	if len(flips) != 2 || !flips[1] {
		t.Errorf("flips after recovery = %v, want [false true]", flips)
	}
	mu.Unlock()
	if st := r.Stats(); st.Failures == 0 || st.Registrations == 0 {
		t.Errorf("stats = %+v, want both failures and registrations", st)
	}
}

// TestRegistrarReRegistrationFlips: a directory that goes down after a
// healthy start flips the listener to unreachable, and back on recovery.
func TestRegistrarReRegistrationFlips(t *testing.T) {
	dir := newFlakyDir()
	r := NewRegistrar(dir, Registration{Name: "A", Endpoint: "http://a"}, 20*time.Millisecond)
	var mu sync.Mutex
	var flips []bool
	r.SetStateListener(func(reachable bool, _ error) {
		mu.Lock()
		flips = append(flips, reachable)
		mu.Unlock()
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	dir.setDown(true)
	waitFlips := func(n int) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for {
			mu.Lock()
			got := len(flips)
			mu.Unlock()
			if got >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d flips after waiting, want %d", got, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFlips(2) // [true, false]
	dir.setDown(false)
	waitFlips(3) // [true, false, true]
	mu.Lock()
	defer mu.Unlock()
	if !flips[0] || flips[1] || !flips[2] {
		t.Errorf("flips = %v, want [true false true]", flips)
	}
}

// TestRegistrarStopBounded: Stop against an unreachable directory must not
// hang on deregistration.
func TestRegistrarStopBounded(t *testing.T) {
	srv := httptest.NewServer(nil)
	base := srv.URL
	srv.Close() // nothing listens any more
	c := &DirectoryClient{BaseURL: base, Timeout: 100 * time.Millisecond}
	r := NewRegistrar(c, Registration{Name: "A", Endpoint: "http://a"}, time.Minute)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { r.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(deregisterTimeout + 2*time.Second):
		t.Fatal("Stop hung on an unreachable directory")
	}
}

// heldDirectory is a directory across a network: a registration its caller
// abandons may still be applied after the call returns, as a request already
// on the wire is. While hold is set, registrations wait for release, and each
// held one is announced on pending.
type heldDirectory struct {
	*Directory
	hold    atomic.Bool
	release chan struct{}
	pending chan struct{}
	applied sync.WaitGroup
}

func (d *heldDirectory) RegisterContext(ctx context.Context, r Registration) error {
	if !d.hold.Load() {
		return d.Directory.RegisterContext(ctx, r)
	}
	done := make(chan error, 1)
	d.applied.Add(1)
	go func() {
		defer d.applied.Done()
		<-d.release
		done <- d.Directory.RegisterContext(context.Background(), r)
	}()
	d.pending <- struct{}{}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestRegistrarStopOutlastsARegistrationInFlight: a member stopped while a
// heartbeat is still on its way to the directory ends unlisted. Stop waits
// for that heartbeat's answer before it deregisters, so the directory cannot
// apply the heartbeat after the deregistration.
func TestRegistrarStopOutlastsARegistrationInFlight(t *testing.T) {
	dir := &heldDirectory{Directory: NewDirectory(0, nil),
		release: make(chan struct{}), pending: make(chan struct{}, 8)}
	r := NewRegistrar(dir, Registration{Name: "A", Endpoint: "http://a"}, 10*time.Millisecond)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	dir.hold.Store(true)
	select {
	case <-dir.pending:
	case <-time.After(5 * time.Second):
		t.Fatal("no heartbeat reached the directory")
	}
	stopped := make(chan struct{})
	go func() {
		r.Stop()
		close(stopped)
	}()
	time.Sleep(20 * time.Millisecond) // let a Stop that abandons it go on to deregister
	close(dir.release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop never returned")
	}
	dir.applied.Wait()
	if _, listed, _ := dir.LookupContext(context.Background(), "A"); listed {
		t.Fatal("the stopped member is listed again: its heartbeat landed after its deregistration")
	}
}

// TestRegistrarHaltLeavesTheRecord: Halt stops the heartbeat and leaves the
// record listed, as a crash does; a Start after it refreshes the record
// again.
func TestRegistrarHaltLeavesTheRecord(t *testing.T) {
	d := NewDirectory(0, nil)
	r := NewRegistrar(d, Registration{Name: "A", Endpoint: "http://a", Role: RoleRepublisher}, 10*time.Millisecond)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.Halt()
	halted, ok, _ := d.LookupContext(context.Background(), "A")
	if !ok || halted.Role != RoleRepublisher {
		t.Fatalf("after Halt the record is %+v, %v; want it left listed", halted, ok)
	}
	time.Sleep(50 * time.Millisecond)
	if got, _, _ := d.LookupContext(context.Background(), "A"); !got.RegisteredAt.Equal(halted.RegisteredAt) {
		t.Fatal("a halted registrar refreshed the record")
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if got, _, _ := d.LookupContext(context.Background(), "A"); !got.RegisteredAt.After(halted.RegisteredAt) {
		t.Fatal("restarting after Halt did not refresh the record")
	}
}
