// Package flight provides the concurrency primitives the experiment
// engine is built on: a generic singleflight group (concurrent callers
// asking for the same key share one execution and its result), a bounded
// worker pool with deterministic error selection, and the resilience
// helpers layered on both — context cancellation and panic containment.
//
// The primitives are deliberately free of any randomness or wall-clock
// reads: which goroutine computes a value may vary run to run, but the
// value computed, the caches it lands in, and the error reported are
// identical regardless of scheduling. That property is what lets the
// parallel experiment engine emit byte-identical tables to the serial
// one (see DESIGN.md "Concurrency model").
//
// Panic policy: a panic inside work submitted to ForEachCtx,
// Group.DoCtx or Protect never crosses the package boundary. It is
// caught at the index (or call) that raised it and converted into a
// *PanicError carrying the panic value and stack, so one poisoned grid
// cell reports a structured failure instead of killing a multi-minute
// run.
package flight

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is a recovered panic converted into an error: the panic
// value plus the stack of the goroutine at the recovery point.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// NewPanicError wraps a recovered panic value, capturing the stack at the
// call site (i.e. inside the recovering deferred function, which still
// shows the panicking frames).
func NewPanicError(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Protect runs fn, converting a panic into a *PanicError return. It is
// the package's panic policy as a standalone helper for callers that run
// risky work outside a pool.
func Protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = NewPanicError(r)
		}
	}()
	return fn()
}

// call is one in-flight computation. done is closed when val/err are
// final, so waiters can select against a context.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Group deduplicates concurrent computations by key: while a call for a
// key is executing, later callers for the same key block and receive the
// same result instead of re-executing. The zero value is ready to use.
//
// Unlike a cache, a Group forgets the key once the call completes; pair
// it with a mutex-guarded map when results should persist (the Runner's
// calibration, baseline and cell memos do exactly that).
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V] // guarded by mu
}

// DoCtx executes fn for key, unless a call for key is already in flight,
// in which case it waits for that call and returns its result. A panic
// in fn is contained: the executing caller and every waiter receive a
// *PanicError instead of a hung WaitGroup or a crashed process.
//
// A waiter whose context ends abandons the wait and returns ctx.Err()
// (the in-flight execution itself is not interrupted — its result still
// lands for other waiters), and a would-be executor whose context has
// already ended returns ctx.Err() without executing.
func (g *Group[K, V]) DoCtx(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	var zero V
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*call[V])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	c := &call[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				c.err = NewPanicError(r)
			}
		}()
		c.val, c.err = fn()
	}()
	close(c.done)

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	return c.val, c.err
}

// ForEachCtx runs fn(0), fn(1), …, fn(n-1) on at most workers goroutines
// and waits for all of them. Every index runs exactly once even when
// some fail, and a panic at one index becomes that index's *PanicError
// without disturbing the others. The returned error is the one from the
// lowest failing index — not the first to fail in wall-clock order — so
// the error a caller sees does not depend on goroutine scheduling.
//
// workers <= 1 degenerates to a plain serial loop on the calling
// goroutine (still running every index).
//
// Once ctx ends, no further index is dispatched (in-flight indices
// finish). Cancellation dominates the result — the index set is
// incomplete, so the return is ctx.Err() even when a dispatched index
// also failed; with an intact context the lowest-index error rule
// applies. Deadlines propagate by construction: fn closures capture ctx
// and pass it down to cancellable work.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := protectIdx(fn, i); err != nil && first == nil {
				first = err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		return first
	}

	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				// The recovery must live lexically inside the goroutine
				// (the nakedgo lint guards exactly this): a panic that
				// escaped a pooled worker would kill the whole process.
				func() {
					defer func() {
						if r := recover(); r != nil {
							errs[i] = NewPanicError(r)
						}
					}()
					errs[i] = fn(i)
				}()
			}
		}()
	}
	cancelled := false
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			cancelled = true
			break feed
		}
	}
	close(next)
	wg.Wait()

	if cancelled {
		return ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// protectIdx runs fn(i) under the package panic policy (serial path; the
// pooled path inlines the same recovery inside the worker goroutine).
func protectIdx(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = NewPanicError(r)
		}
	}()
	return fn(i)
}
