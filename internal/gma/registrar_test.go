package gma

import (
	"context"
	"net/http/httptest"
	"sync"
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
	if r.Registered() {
		t.Error("Registered() true while the directory is down")
	}
	mu.Lock()
	if len(flips) != 1 || flips[0] {
		t.Errorf("initial flips = %v, want [false]", flips)
	}
	mu.Unlock()

	// The directory recovers; the backoff loop must land the registration.
	dir.setDown(false)
	deadline := time.Now().Add(3 * time.Second)
	for !r.Registered() {
		if time.Now().After(deadline) {
			t.Fatal("registration never landed after recovery")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok, _ := dir.Directory.LookupContext(context.Background(), "A"); !ok {
		t.Error("directory has no record despite Registered()")
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
