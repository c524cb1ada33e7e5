package web

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"gridrm/internal/core"
)

func TestAdmissionAcquireRelease(t *testing.T) {
	a := newAdmission(2, 0)
	rel1, ok := a.acquire(context.Background())
	if !ok {
		t.Fatal("first acquire shed")
	}
	rel2, ok := a.acquire(context.Background())
	if !ok {
		t.Fatal("second acquire shed")
	}
	if _, ok := a.acquire(context.Background()); ok {
		t.Fatal("third acquire admitted past MaxInFlight with no queue")
	}
	st := a.stats()
	if st.InFlight != 2 || st.Admitted != 2 || st.Shed != 1 {
		t.Errorf("stats = %+v", st)
	}
	rel1()
	if rel3, ok := a.acquire(context.Background()); !ok {
		t.Error("acquire after release shed")
	} else {
		rel3()
	}
	rel2()
	if got := a.stats().InFlight; got != 0 {
		t.Errorf("inflight after releases = %d, want 0", got)
	}
}

func TestAdmissionQueue(t *testing.T) {
	a := newAdmission(1, 1)
	rel, ok := a.acquire(context.Background())
	if !ok {
		t.Fatal("first acquire shed")
	}
	admitted := make(chan func(), 1)
	go func() {
		r2, ok := a.acquire(context.Background())
		if !ok {
			close(admitted)
			return
		}
		admitted <- r2
	}()
	// Wait for the goroutine to be queued.
	deadline := time.Now().Add(2 * time.Second)
	for a.stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// The queue is full: an immediate third arrival is shed.
	if _, ok := a.acquire(context.Background()); ok {
		t.Fatal("arrival past the queue bound admitted")
	}
	rel()
	select {
	case r2, ok := <-admitted:
		if !ok {
			t.Fatal("queued waiter was shed")
		}
		r2()
	case <-time.After(2 * time.Second):
		t.Fatal("queued waiter never admitted after release")
	}
	st := a.stats()
	if st.Shed != 1 || st.Admitted != 2 || st.Queued != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAdmissionQueuedCtxCancel(t *testing.T) {
	a := newAdmission(1, 1)
	rel, ok := a.acquire(context.Background())
	if !ok {
		t.Fatal("first acquire shed")
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := a.acquire(ctx)
		done <- ok
	}()
	deadline := time.Now().Add(2 * time.Second)
	for a.stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Error("cancelled waiter was admitted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter stuck")
	}
	st := a.stats()
	if st.Shed != 1 || st.Queued != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestServerShedsWith429 exercises the gate over HTTP: with one slot held,
// a query is shed with 429 + Retry-After, the shed surfaces on /status and
// /metrics, and the server admits again once the slot frees.
func TestServerShedsWith429(t *testing.T) {
	f := newFixture(t, nil)
	srv := f.srv.Config.Handler.(*Server)
	srv.SetAdmissionLimits(1, 0)

	// Saturate the gate directly (whitebox): one slot, held by "a request".
	release, ok := srv.admit.acquire(context.Background())
	if !ok {
		t.Fatal("priming acquire shed")
	}

	_, err := f.client.Query(context.Background(), core.QueryOptions{SQL: "SELECT * FROM Processor", Mode: core.ModeCached})
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("saturated query error = %v, want 429", err)
	}
	resp, herr := http.Post(f.srv.URL+"/query", "application/json",
		strings.NewReader(`{"sql":"SELECT * FROM Processor"}`))
	if herr != nil {
		t.Fatal(herr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Poll is gated too.
	if _, err := f.client.Poll(context.Background(), f.url, "Processor"); err == nil || !strings.Contains(err.Error(), "429") {
		t.Errorf("saturated poll error = %v, want 429", err)
	}

	st, err := f.client.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil {
		t.Fatal("/status missing admission section")
	}
	if st.Admission.Shed != 3 || st.Admission.MaxInFlight != 1 {
		t.Errorf("admission stats = %+v", st.Admission)
	}
	metrics, err := http.Get(f.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := metrics.Body.Read(body)
	metrics.Body.Close()
	if !strings.Contains(string(body[:n]), "gridrm_http_shed_total 3") {
		t.Errorf("metrics missing shed count:\n%s", body[:n])
	}

	// Release the slot: queries flow again; management endpoints were never
	// gated at all.
	release()
	if _, err := f.client.Query(context.Background(), core.QueryOptions{SQL: "SELECT * FROM Processor", Mode: core.ModeCached}); err != nil {
		t.Errorf("query after release: %v", err)
	}
}

// TestClientContextVariants: a cancelled context must abort client calls.
func TestClientContextVariants(t *testing.T) {
	f := newFixture(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.client.Sources(ctx); err == nil {
		t.Error("Sources ignored a dead context")
	}
	if _, err := f.client.Status(ctx); err == nil {
		t.Error("Status ignored a dead context")
	}
	if _, err := f.client.Sites(ctx); err == nil {
		t.Error("Sites ignored a dead context")
	}
	// And the live path still works through the same code.
	if _, err := f.client.Sources(context.Background()); err != nil {
		t.Errorf("live Sources: %v", err)
	}
}
