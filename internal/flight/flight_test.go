package flight

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGroupSharesInFlightCall(t *testing.T) {
	var g Group[string, int]
	var executions atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	// Leader: opens the flight and holds it open on release. Its fn runs
	// only after the call is registered, so once started closes, every
	// later DoCtx(…, "k", …) is guaranteed to find the call in flight.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := g.DoCtx(context.Background(), "k", func() (int, error) {
			executions.Add(1)
			close(started)
			<-release
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Errorf("leader: %d, %v", v, err)
		}
	}()
	<-started

	// Followers: each marks arrival, then piles onto the open flight.
	var arrived atomic.Int64
	results := make([]int, 7)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived.Add(1)
			v, err := g.DoCtx(context.Background(), "k", func() (int, error) {
				executions.Add(1)
				return -1, nil // must never run: the flight is open
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Keep the flight open until every follower has arrived and had
	// ample chance to advance from its arrival mark into DoCtx (each yield
	// lets runnable goroutines run until they block on the call).
	for arrived.Load() < int64(len(results)) {
		runtime.Gosched()
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	for i, v := range results {
		if v != 42 {
			t.Fatalf("follower %d got %d (ran its own fn instead of sharing)", i, v)
		}
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("want 1 shared execution, got %d", n)
	}
}

func TestGroupDistinctKeysDoNotBlock(t *testing.T) {
	var g Group[int, int]
	for k := 0; k < 10; k++ {
		v, err := g.DoCtx(context.Background(), k, func() (int, error) { return k * k, nil })
		if err != nil || v != k*k {
			t.Fatalf("key %d: %d, %v", k, v, err)
		}
	}
}

func TestGroupPropagatesError(t *testing.T) {
	var g Group[string, int]
	boom := errors.New("boom")
	if _, err := g.DoCtx(context.Background(), "k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("got %v", err)
	}
	// The key is forgotten after the call; a retry re-executes.
	v, err := g.DoCtx(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry: %d, %v", v, err)
	}
}

func TestGroupMemoizesSucceededCall(t *testing.T) {
	var g Group[string, int]
	var ran atomic.Int64
	fn := func() (int, error) { ran.Add(1); return 42, nil }
	for i := 0; i < 3; i++ {
		if v, err := g.DoCtx(context.Background(), "k", fn); err != nil || v != 42 {
			t.Fatalf("call %d: %d, %v", i, v, err)
		}
	}
	// A completed call answers a caller whose context has ended, every
	// time: a select that weighed done against ctx.Done() would pick the
	// context in about half of these.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		if v, err := g.DoCtx(ctx, "k", fn); err != nil || v != 42 {
			t.Fatalf("cancelled caller %d: %d, %v; want the memoized 42", i, v, err)
		}
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want once", n)
	}

	// Range visits the succeeded key only: not a failed one, nor one
	// still in flight.
	if _, err := g.DoCtx(context.Background(), "bad", func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("error swallowed")
	}
	started, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		_, _ = g.DoCtx(context.Background(), "open", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	seen := map[string]int{}
	g.Range(func(k string, v int) { seen[k] = v })
	close(release)
	<-finished
	if len(seen) != 1 || seen["k"] != 42 {
		t.Fatalf("Range visited %v, want only k=42", seen)
	}
}

func TestForEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 50
		seen := make([]atomic.Int64, n)
		if err := ForEachCtx(context.Background(), n, workers, func(i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(context.Background(), 20, workers, func(i int) error {
			switch i {
			case 3:
				return errLow
			case 17:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: got %v, want lowest-index error", workers, err)
		}
	}
}

func TestForEachKeepsRunningAfterFailure(t *testing.T) {
	var ran atomic.Int64
	err := ForEachCtx(context.Background(), 10, 2, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if ran.Load() != 10 {
		t.Fatalf("only %d of 10 indices ran", ran.Load())
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEachCtx(context.Background(), 0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachConvertsPanicToPanicError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEachCtx(context.Background(), 10, workers, func(i int) error {
			ran.Add(1)
			if i == 3 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want *PanicError", workers, err)
		}
		if pe.Value != "kaboom" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: PanicError lost value or stack: %+v", workers, pe)
		}
		if ran.Load() != 10 {
			t.Fatalf("workers=%d: panic at one index stopped the others (%d of 10 ran)", workers, ran.Load())
		}
	}
}

func TestForEachCtxCancelStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n, workers = 100, 2
	var dispatched atomic.Int64
	gate := make(chan struct{})
	busy := make(chan struct{}, workers)
	done := make(chan error, 1)
	go func() {
		done <- ForEachCtx(ctx, n, workers, func(i int) error {
			dispatched.Add(1)
			if i < workers {
				busy <- struct{}{}
				<-gate
			}
			return nil
		})
	}()
	// Both workers are now parked inside fn, so the feeder is blocked on
	// its select; cancelling must be the only case that can complete.
	<-busy
	<-busy
	cancel()
	close(gate)
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if d := dispatched.Load(); d >= n {
		t.Fatalf("cancellation did not stop dispatch: %d of %d indices ran", d, n)
	}
}

func TestForEachCtxSerialPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEachCtx(ctx, 10, 1, func(int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
		t.Fatalf("pre-cancelled serial run: err=%v ran=%d", err, ran.Load())
	}
}

func TestForEachCtxCancellationDominatesCellError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEachCtx(ctx, 5, 1, func(i int) error {
		cancel()
		return errors.New("cell failed")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v; an incomplete index set must report cancellation", err)
	}
}

func TestGroupLeaderPanicPropagatesToWaiters(t *testing.T) {
	var g Group[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = g.DoCtx(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("leader died")
		})
	}()
	<-started
	var arrived atomic.Int64
	for i := 1; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived.Add(1)
			_, errs[i] = g.DoCtx(context.Background(), "k", func() (int, error) { return -1, nil })
		}(i)
	}
	for arrived.Load() < int64(len(errs)-1) {
		runtime.Gosched()
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("caller %d: got %v, want *PanicError from the leader's panic", i, err)
		}
		if pe.Value != "leader died" {
			t.Fatalf("caller %d: wrong panic value %v", i, pe.Value)
		}
	}
}

func TestGroupDoCtxWaiterAbandonsOnCancel(t *testing.T) {
	var g Group[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := g.DoCtx(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Errorf("leader: %d, %v (waiter cancellation must not disturb the flight)", v, err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := g.DoCtx(ctx, "k", func() (int, error) { return -1, nil })
		waiterDone <- err
	}()
	// Let the waiter join the open flight, then cancel only its context.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter got %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()
}

func TestGroupDoCtxPreCancelledSkipsExecution(t *testing.T) {
	var g Group[string, int]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := g.DoCtx(ctx, "k", func() (int, error) { ran.Add(1); return 1, nil })
	if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
		t.Fatalf("pre-cancelled DoCtx: err=%v ran=%d", err, ran.Load())
	}
}

func TestProtect(t *testing.T) {
	if err := Protect(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("plain")
	if err := Protect(func() error { return sentinel }); err != sentinel {
		t.Fatalf("got %v", err)
	}
	err := Protect(func() error { panic(42) })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != 42 {
		t.Fatalf("got %v, want *PanicError{42}", err)
	}
}
