package service

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"manirank"
)

// TestCloseRejectsWaitersAndFinishesRunning pins Close's admission
// contract: a request waiting for a solver slot answers 503 at once, well
// inside its own deadline, while the running solve is allowed to finish;
// Close returns only after that solve is done.
func TestCloseRejectsWaitersAndFinishesRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	slow := testRequest("fair-kemeny", 51)
	slow.Options.Perturbations = 2_000_000
	slow.DeadlineMillis = 1500
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		post(t, ts.URL, slow)
	}()
	waitFor(t, func() bool { return s.inFlight.Load() == 1 })

	waiting := testRequest("fair-kemeny", 52) // distinct digest
	waiting.Options.Perturbations = 2_000_000
	waiting.DeadlineMillis = 60_000
	waitingDone := make(chan int, 1)
	go func() {
		status, _ := post(t, ts.URL, waiting)
		waitingDone <- status
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	closeStart := time.Now()
	closeDone := make(chan int64, 1)
	go func() {
		s.Close()
		closeDone <- s.inFlight.Load()
	}()
	if status := <-waitingDone; status != http.StatusServiceUnavailable {
		t.Fatalf("waiting request: status %d, want 503", status)
	}
	if waited := time.Since(closeStart); waited > time.Second {
		t.Fatalf("waiting request answered %v after Close, want at once", waited)
	}
	select {
	case <-closeDone:
		t.Fatal("Close returned while a solve was still running")
	default:
	}
	<-slowDone
	if inFlight := <-closeDone; inFlight != 0 {
		t.Fatalf("Close returned with %d solves in flight", inFlight)
	}
}

// TestWorkersBoundConcurrency pins the two admission bounds under a burst:
// never more than Workers solves run at once, the rest wait in the queue,
// and every request is served.
func TestWorkersBoundConcurrency(t *testing.T) {
	const workers, burst = 2, 6
	s, ts := newTestServer(t, Config{Workers: workers, QueueDepth: 16})
	var maxInFlight, maxDepth atomic.Int64
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			if n := s.inFlight.Load(); n > maxInFlight.Load() {
				maxInFlight.Store(n)
			}
			if n := s.queued.Load(); n > maxDepth.Load() {
				maxDepth.Store(n)
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := testRequest("fair-kemeny", int64(60+i)) // distinct digests
			req.Options.Perturbations = 2000
			req.DeadlineMillis = 60_000
			if status, _ := post(t, ts.URL, req); status != http.StatusOK {
				t.Errorf("request %d: status %d, want 200", i, status)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-polled
	if got := maxInFlight.Load(); got > workers {
		t.Fatalf("saw %d solves in flight, want at most %d", got, workers)
	}
	if got := maxDepth.Load(); got < 1 {
		t.Fatalf("queue depth never rose above %d during a burst of %d", got, burst)
	}
}

// TestCloseAnswersRunningRequest: Close waits for a running solve, and the
// request that owns it still gets its best-so-far answer rather than 503.
func TestCloseAnswersRunningRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	slow := testRequest("fair-kemeny", 53)
	slow.Options.Perturbations = 2_000_000
	slow.DeadlineMillis = 500
	type answer struct {
		status int
		out    *AggregateResponse
	}
	done := make(chan answer, 1)
	go func() {
		status, out := post(t, ts.URL, slow)
		done <- answer{status, out}
	}()
	waitFor(t, func() bool { return s.inFlight.Load() == 1 })
	s.Close()
	if a := <-done; a.status != http.StatusOK || !a.out.Partial {
		t.Fatalf("running request: status %d, want 200 with a partial answer", a.status)
	}
}

// TestAdmitPanicFreesSlot: a panicking computation unwinds its caller
// without leaking the solver slot or the in-flight count.
func TestAdmitPanicFreesSlot(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("admit swallowed the panic")
			}
		}()
		s.admit(nil, manirank.MethodBorda, time.Second, func(context.Context) (*result, error) {
			panic("solver exploded")
		})
	}()
	if n := s.inFlight.Load(); n != 0 {
		t.Fatalf("in_flight = %d after the panic, want 0", n)
	}
	want := &result{}
	got, err := s.admit(nil, manirank.MethodBorda, time.Second, func(context.Context) (*result, error) {
		return want, nil
	})
	if err != nil || got != want {
		t.Fatalf("admit after the panic = %v, %v; want the slot free", got, err)
	}
}
