package retry

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
)

func TestBackoffDelay(t *testing.T) {
	cases := []struct {
		name      string
		b         Backoff
		attempt   int
		wantUpper time.Duration // the nominal (un-jittered) delay
	}{
		{"first attempt is base", Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}, 0, 50 * time.Millisecond},
		{"doubles per attempt", Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}, 3, 400 * time.Millisecond},
		{"cap holds", Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}, 6, 2 * time.Second},
		{"cap holds where the shift would overflow", Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}, 62, 2 * time.Second},
		{"cap holds past the word size", Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}, 1000, 2 * time.Second},
		{"one-nanosecond base", Backoff{Base: 1, Max: time.Minute}, 0, 1},
		{"one-nanosecond base at attempt 62", Backoff{Base: 1, Max: math.MaxInt64}, 62, 1 << 62},
		{"one-nanosecond base past the word size", Backoff{Base: 1, Max: time.Minute}, 64, time.Minute},
		{"base above cap", Backoff{Base: time.Second, Max: time.Millisecond}, 0, time.Millisecond},
	}
	for _, tc := range cases {
		for i := 0; i < 200; i++ {
			d := tc.b.Delay(tc.attempt)
			if d < tc.wantUpper/2 || d > tc.wantUpper {
				t.Fatalf("%s: Delay(%d) = %v, want within [%v, %v]",
					tc.name, tc.attempt, d, tc.wantUpper/2, tc.wantUpper)
			}
		}
	}
}

func TestBackoffDelayJitters(t *testing.T) {
	b := Backoff{Base: time.Second, Max: time.Minute}
	seen := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		seen[b.Delay(2)] = true
	}
	if len(seen) < 2 {
		t.Errorf("50 delays, %d distinct: no jitter", len(seen))
	}
}

func TestSleep(t *testing.T) {
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Errorf("uncancelled Sleep = %v", err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := Sleep(ctx, time.Hour)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled Sleep = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("cancelled Sleep returned after %v", took)
	}
	// The hour-long timer must not leave anything behind; the context's
	// own timer goroutine gets a moment to exit.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d across a cancelled Sleep", before, after)
	}

	// A context that is already dead is reported, not slept through.
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Sleep on a dead context = %v", err)
	}
}
