package breaker

import (
	"testing"
	"time"
)

func TestBreakerOpensAfterThreshold(t *testing.T) {
	now := time.Unix(1000, 0)
	b := New(Options{Threshold: 3, Cooldown: time.Minute})
	for i := 0; i < 2; i++ {
		if opened := b.OnFailure(now); opened {
			t.Fatalf("opened after %d failures", i+1)
		}
		if !b.Allow(now) {
			t.Fatalf("rejected while closed after %d failures", i+1)
		}
	}
	if !b.OnFailure(now) {
		t.Error("third failure did not report the closed→open edge")
	}
	if b.State(now) != Open {
		t.Errorf("state = %s, want open", b.State(now))
	}
	if b.Allow(now) {
		t.Error("open breaker allowed a call mid-cooldown")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	now := time.Unix(1000, 0)
	b := New(Options{Threshold: 1, Cooldown: 10 * time.Second})
	b.OnFailure(now)

	now = now.Add(11 * time.Second)
	if !b.Allow(now) {
		t.Fatal("post-cooldown probe rejected")
	}
	if b.Allow(now) {
		t.Error("second concurrent probe allowed")
	}
	if b.State(now) != HalfOpen {
		t.Errorf("state = %s, want half-open", b.State(now))
	}

	// A failed probe re-arms the cooldown without counting a new open.
	if opened := b.OnFailure(now); opened {
		t.Error("failed probe recounted as an open")
	}
	if b.Allow(now) {
		t.Error("allowed immediately after failed probe")
	}

	// A successful probe closes the breaker.
	now = now.Add(11 * time.Second)
	if !b.Allow(now) {
		t.Fatal("second probe rejected")
	}
	b.OnSuccess()
	if b.State(now) != Closed || !b.Allow(now) {
		t.Error("breaker did not close after successful probe")
	}
}

func TestBreakerDisabled(t *testing.T) {
	now := time.Unix(1000, 0)
	b := New(Options{Threshold: -1})
	for i := 0; i < 10; i++ {
		if b.OnFailure(now) {
			t.Fatal("disabled breaker opened")
		}
	}
	if !b.Allow(now) || b.State(now) != Closed {
		t.Error("disabled breaker rejected a call")
	}
	if n := b.Failures(); n != 10 {
		t.Errorf("disabled breaker counted %d failures, want 10", n)
	}
	b.OnSuccess()
	if n := b.Failures(); n != 0 {
		t.Errorf("failures after a success = %d", n)
	}
}

// TestBreakerReleaseGivesBackTheSlot: a half-open slot given back by
// Release is claimable again at once, and the count is untouched.
func TestBreakerReleaseGivesBackTheSlot(t *testing.T) {
	now := time.Unix(1000, 0)
	b := New(Options{Threshold: 1, Cooldown: time.Second})
	b.OnFailure(now)
	now = now.Add(2 * time.Second)
	if !b.Allow(now) || b.Allow(now) {
		t.Fatal("half-open breaker did not hand out exactly one slot")
	}
	b.Release()
	if b.Failures() != 1 || b.State(now) != HalfOpen {
		t.Errorf("after Release: failures %d, state %s", b.Failures(), b.State(now))
	}
	if !b.Allow(now) {
		t.Error("released slot not claimable")
	}
}

func TestBreakerDefaults(t *testing.T) {
	o := Options{}.Fill()
	if o.Threshold != 5 || o.Cooldown != 30*time.Second {
		t.Errorf("defaults = %+v", o)
	}
}
