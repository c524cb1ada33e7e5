package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/resultset"
)

// flightResult is the outcome one coalesced harvest shares with its
// followers.
type flightResult struct {
	rs         *resultset.ResultSet
	driverName string
	at         time.Time
	err        error
}

// flight is one in-progress harvest. done is made by the first follower to
// join (a harvest nobody waits for makes no channel), closed once res is final.
type flight struct {
	done    chan struct{}
	res     flightResult
	waiters atomic.Int64
}

// flightKey names a harvest: the source and the canonical harvest SQL.
type flightKey struct{ url, sql string }

// flightGroup coalesces concurrent harvests of the same key, so N
// cache-missing queries cost the data source one harvest, the intrusion limit
// the paper's cache exists for (§4).
type flightGroup struct {
	mu       sync.Mutex
	inflight map[flightKey]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{inflight: make(map[flightKey]*flight)}
}

// do executes fn once per key among concurrent callers. The first caller
// (the leader) runs fn; every other caller waits for the leader's result —
// the same rows, shared: every holder only reads them — or its own ctx
// deadline, whichever comes first. A waiter whose leader failed with a
// context error while the waiter's own deadline still allows a harvest
// starts over, possibly as the new leader, so one client giving up cannot
// fail the others. shared reports whether the caller received another caller's
// harvest.
func (fg *flightGroup) do(ctx context.Context, key flightKey, fn func() flightResult) (res flightResult, shared bool) {
	for {
		fg.mu.Lock()
		if f, ok := fg.inflight[key]; ok {
			f.waiters.Add(1)
			if f.done == nil {
				f.done = make(chan struct{})
			}
			fg.mu.Unlock()
			select {
			case <-f.done: // set under the lock, never changed after
				if err := f.res.err; (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && ctx.Err() == nil {
					continue
				}
				return f.res, true
			case <-ctx.Done():
				return flightResult{err: ctx.Err()}, false
			}
		}
		f := &flight{}
		fg.inflight[key] = f
		fg.mu.Unlock()

		f.res = fn()

		fg.mu.Lock()
		delete(fg.inflight, key)
		done := f.done // final: nobody joins a flight that is out of the map
		fg.mu.Unlock()
		if done != nil {
			close(done)
		}
		return f.res, false
	}
}

// totalWaiters reports how many followers are currently blocked on
// in-flight harvests, across all keys. It exists so coalescing tests can
// synchronise on "the followers have joined the flight" instead of
// sleeping and hoping the scheduler ran them.
func (fg *flightGroup) totalWaiters() int64 {
	fg.mu.Lock()
	defer fg.mu.Unlock()
	var n int64
	for _, f := range fg.inflight {
		n += f.waiters.Load()
	}
	return n
}
