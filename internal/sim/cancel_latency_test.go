package sim

import (
	"context"
	"testing"
)

// countingCtx counts Err() polls and starts reporting cancellation at
// the cancelAt-th call (0 = never) — a deterministic way to cancel at a
// known check boundary without wall-clock timing.
type countingCtx struct {
	context.Context
	calls    int
	cancelAt int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return c.Context.Err()
}

// quietSystem builds a cell whose total request count (4 cores x 1000)
// sits below ctxCheckInterval while its simulated span (~413 us) covers
// several ctxCheckSimStride boundaries: the request stride alone would
// never observe cancellation in such a cell.
func quietSystem(t *testing.T) *System {
	t.Helper()
	return NewSystem(fastCfg(SchemeBaseline), xzStreams(t, 1000))
}

func TestRunCtxPreCancelledQuietCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := quietSystem(t).RunCtx(ctx, 0); err != context.Canceled {
		t.Fatalf("pre-cancelled quiet cell returned %v, want context.Canceled", err)
	}
}

func TestRunCtxCancelAtStrideBoundary(t *testing.T) {
	// Call 1 lands at the first request (sim time ~0); call 2 at the
	// first request past one stride. Cancelling there must abandon the
	// run even though fewer than ctxCheckInterval requests ever issue.
	ctx := &countingCtx{Context: context.Background(), cancelAt: 2}
	if _, err := quietSystem(t).RunCtx(ctx, 0); err != context.Canceled {
		t.Fatalf("quiet cell ignored mid-run cancellation: %v", err)
	}
	if ctx.calls != 2 {
		t.Fatalf("ctx polled %d times, want exactly 2 (cancel consumed at the first stride boundary)", ctx.calls)
	}
}

// TestRunCtxCancellationLatencyBound pins the latency guarantee in
// simulated time: over a full quiet-cell run the ctx is polled at least
// once per stride of simulated time (the first request at or after each
// boundary), so cancellation lands within ~ctxCheckSimStride plus one
// inter-request gap rather than "never" as the request stride alone
// would give.
func TestRunCtxCancellationLatencyBound(t *testing.T) {
	ctx := &countingCtx{Context: context.Background()}
	res, err := quietSystem(t).RunCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests >= ctxCheckInterval {
		t.Fatalf("cell not quiet: %d requests, want < %d", res.Requests, ctxCheckInterval)
	}
	minChecks := int(res.SimTime / ctxCheckSimStride)
	if minChecks < 2 {
		t.Fatalf("cell too short to exercise the stride: %d ps", res.SimTime)
	}
	if ctx.calls < minChecks {
		t.Fatalf("ctx polled %d times over %d ps; want >= %d (once per %d ps stride)",
			ctx.calls, res.SimTime, minChecks, int64(ctxCheckSimStride))
	}
	// And the stride is not over-polling either: at most one check per
	// boundary crossed plus the request-stride contribution.
	maxChecks := minChecks + 2 + int(res.Requests/ctxCheckInterval)
	if ctx.calls > maxChecks {
		t.Fatalf("ctx polled %d times, want <= %d — stride checks should fire once per boundary", ctx.calls, maxChecks)
	}
}
