package plan

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"optrule/internal/relation"
)

// splitBatchRequirements resolves a schedule with every tally shape
// the general kernel serves: unfiltered and filtered groups, target
// sums (one over the NaN-holed driver X), tracked extremes, and two
// pair grids.
func splitBatchRequirements(t *testing.T, rel relation.Relation, d Defaults) *Requirements {
	t.Helper()
	queries := []Query{
		{Op: OpRules},
		{Op: OpConjunctive, Numeric: "X",
			Objectives: []Condition{{Attr: "C", Value: true}},
			Conditions: []Condition{{Attr: "F", Value: true}}},
		{Op: OpRules, Numeric: "Y", Objective: "C", ObjectiveValue: true,
			Conditions: []Condition{{Attr: "G", Value: true}}},
		{Op: OpAverage, Numeric: "Y", Target: "T", MinSupport: 0.1},
		{Op: OpAverage, Numeric: "X", Target: "T", MinSupport: 0.1},
		{Op: OpRules2D, Numeric: "X", NumericB: "Y", Objective: "C", ObjectiveValue: true},
		{Op: OpRules2D, Numeric: "Y", NumericB: "T", Objective: "G", ObjectiveValue: false},
	}
	req := NewRequirements()
	for _, q := range queries {
		r, err := Resolve(rel, d, q)
		if err != nil {
			t.Fatalf("resolve %+v: %v", q, err)
		}
		req.Add(r)
	}
	return req
}

// withProcs runs fn at GOMAXPROCS procs and restores the old setting.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestSplitKernelBitIdenticalAcrossWorkers pins the row-chunked general
// counting kernel across worker counts: one mixed schedule over a
// relation above the split floor, chunked once per core, publishes a
// StatsSet reflect.DeepEqual to the brute-force oracle's at every
// GOMAXPROCS — target sums and extremes included.
func TestSplitKernelBitIdenticalAcrossWorkers(t *testing.T) {
	rel := kernelTestRelation(t, splitRowFloor+20000)
	d := Defaults{Buckets: 137, GridSide: 23, SampleFactor: 40, Seed: 5}
	req := splitBatchRequirements(t, rel, d)
	if len(req.Pairs) != 2 {
		t.Fatalf("schedule has %d pair grids, want 2", len(req.Pairs))
	}
	run := func(procs int) *StatsSet {
		var set *StatsSet
		withProcs(procs, func() {
			var err error
			set, err = Run(rel, d, NewCache(0), req)
			if err != nil {
				t.Fatal(err)
			}
		})
		return set
	}
	want := oracleSet(t, rel, req, run(1).Bounds)
	var filtered, targets, extremes, nans bool
	for k, g := range want.Groups {
		filtered = filtered || k.Filter != ""
		targets = targets || len(g.Sum) > 0
		extremes = extremes || g.MinVal != nil
		nans = nans || (g.NaNs > 0 && len(g.Sum) > 0)
	}
	if !filtered || !targets || !extremes || !nans {
		t.Fatalf("schedule is missing a tally shape: filtered=%v targets=%v extremes=%v nanTargets=%v",
			filtered, targets, extremes, nans)
	}
	for _, procs := range []int{1, 2, 3, 8} {
		got := run(procs)
		if !reflect.DeepEqual(want, got) {
			compareStatsSets(t, want, got)
			t.Fatalf("GOMAXPROCS=%d: split kernel StatsSet differs from the oracle", procs)
		}
	}
}

// cancellingRelation cancels a context once its scan has delivered
// after batches, hiding every optional scan interface so the counting
// scan runs serially through Scan.
type cancellingRelation struct {
	relation.Relation
	after  int
	cancel context.CancelFunc
}

func (c *cancellingRelation) Scan(cols relation.ColumnSet, fn func(*relation.Batch) error) error {
	seen := 0
	return c.Relation.Scan(cols, func(b *relation.Batch) error {
		seen++
		if seen == c.after {
			c.cancel()
		}
		return fn(b)
	})
}

// TestSplitKernelCancelMidScan cancels a counting scan between
// batches: the run returns the context's error, and repeated cancelled
// runs leak no goroutine.
func TestSplitKernelCancelMidScan(t *testing.T) {
	rel := kernelTestRelation(t, splitRowFloor+20000)
	d := Defaults{Buckets: 137, GridSide: 23, SampleFactor: 40, Seed: 5}
	req := splitBatchRequirements(t, rel, d)
	// Prewarm the boundaries so the cancelling relation sees only the
	// counting scan.
	warm, err := Run(rel, d, NewCache(0), req)
	if err != nil {
		t.Fatal(err)
	}
	withProcs(4, func() {
		base := runtime.NumGoroutine()
		for i := 0; i < 20; i++ {
			cache := NewCache(0)
			for k, b := range warm.Bounds {
				cache.PutBounds(k, b, rel.NumTuples())
			}
			ctx, cancel := context.WithCancel(context.Background())
			crel := &cancellingRelation{Relation: rel, after: 2, cancel: cancel}
			_, err := RunContext(ctx, crel, d, cache, req)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run %d: got %v, want context.Canceled", i, err)
			}
		}
		deadline := time.Now().Add(3 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("cancelled split scans leaked goroutines: %d running, started with %d\n%s",
					runtime.NumGoroutine(), base, buf[:n])
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	})
}
