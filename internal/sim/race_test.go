package sim

import (
	"context"
	"sync"
	"testing"
)

// TestConcurrentSystemsIndependent drives two identically-configured
// systems through RunCtx concurrently. Each System owns its whole stack —
// next-issue times, rank, tracker, cores — so parallel runs must neither
// trip the race detector (this test is part of `make race`) nor perturb
// each other's results; a serially-run third copy pins the expected
// Result both concurrent runs must reproduce exactly.
func TestConcurrentSystemsIndependent(t *testing.T) {
	build := func() *System {
		return NewSystem(fastCfg(SchemeAquaMemMapped), xzStreams(t, 3000))
	}
	want := build().Run(0)

	sysA, sysB := build(), build()
	var (
		wg         sync.WaitGroup
		resA, resB Result
		errA, errB error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		resA, errA = sysA.RunCtx(context.Background(), 0)
	}()
	go func() {
		defer wg.Done()
		resB, errB = sysB.RunCtx(context.Background(), 0)
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("concurrent runs errored: %v, %v", errA, errB)
	}
	if resA != want {
		t.Errorf("concurrent run A diverged:\n got %+v\nwant %+v", resA, want)
	}
	if resB != want {
		t.Errorf("concurrent run B diverged:\n got %+v\nwant %+v", resB, want)
	}
}
