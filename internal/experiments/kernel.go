package experiments

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"optrule/internal/bucketing"
	"optrule/internal/datagen"
	"optrule/internal/plan"
	"optrule/internal/relation"
)

// The kernel experiment: how close does the batch-vectorized general
// counting kernel come to bucketing.MultiCount, the homogeneous
// register-optimized kernel, and what did vectorizing buy over the
// reference per-tuple kernel? Three timings over the same in-memory
// relation: MultiCount called directly on a same-shape 1-D batch's
// groups, and a mixed 1-D+2-D batch (the same 1-D groups plus a pair
// grid) run through plan.Run once with the reference kernel and once
// with the vectorized one. The experiment hard-fails unless both
// general kernels produce bit-identical statistics — 1-D groups and
// 2-D grid cells.

// KernelResult is the counting-kernel experiment's structured result.
type KernelResult struct {
	Tuples int
	Reps   int
	// FastPath is the homogeneous batch counted by bucketing.MultiCount.
	FastPathSeconds float64
	FastPathNsRow   float64
	// Ref and Vec are the mixed 1-D+2-D batch under the reference
	// per-tuple kernel and the batch-vectorized kernel.
	RefSeconds float64
	RefNsRow   float64
	VecSeconds float64
	VecNsRow   float64
	// VecSpeedup is ref/vec; GapToFast is vec/fast — how much slower
	// the general kernel is than MultiCount (the mixed batch also fills
	// a pair grid and its timing includes the sampling pass, so ~1x
	// means the gap is fully closed).
	VecSpeedup float64
	GapToFast  float64
}

// resolveBatch resolves queries into one batch's requirements.
func resolveBatch(rel relation.Relation, d plan.Defaults, queries []plan.Query) (*plan.Requirements, error) {
	req := plan.NewRequirements()
	for _, q := range queries {
		r, err := plan.Resolve(rel, d, q)
		if err != nil {
			return nil, err
		}
		req.Add(r)
	}
	return req, nil
}

// kernelRun resolves the batch and times plan.Run, taking the best of
// reps runs with a fresh cache each time so no statistics carry over.
func kernelRun(rel relation.Relation, d plan.Defaults, queries []plan.Query, reps int) (*plan.StatsSet, float64, error) {
	req, err := resolveBatch(rel, d, queries)
	if err != nil {
		return nil, 0, err
	}
	var set *plan.StatsSet
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		s, err := plan.Run(rel, d, plan.NewCache(0), req)
		if err != nil {
			return nil, 0, err
		}
		elapsed := time.Since(start).Seconds()
		if i == 0 || elapsed < best {
			set, best = s, elapsed
		}
	}
	return set, best, nil
}

// multiCountRun times bucketing.MultiCount over a same-shape batch's
// groups, with the boundaries in bounds, taking the best of reps runs.
func multiCountRun(rel relation.Relation, req *plan.Requirements, bounds map[plan.BoundKey]bucketing.Boundaries, reps int) (float64, error) {
	drivers := make([]int, len(req.GroupOrder))
	bs := make([]bucketing.Boundaries, len(req.GroupOrder))
	for i, k := range req.GroupOrder {
		drivers[i] = k.Driver
		bs[i] = bounds[plan.BoundKey{Attr: k.Driver, M: k.M, Exact: k.Exact}]
	}
	g := req.Groups[req.GroupOrder[0]]
	opts := bucketing.Options{Bools: g.Bools, Targets: g.Targets, Filter: g.Filter, TrackExtremes: g.TrackExtremes}
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := bucketing.MultiCount(rel, drivers, bs, opts); err != nil {
			return 0, err
		}
		if elapsed := time.Since(start).Seconds(); i == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}

// Kernel measures the three counting configurations on an n-tuple
// in-memory bank relation (memory, so the comparison is pure CPU cost,
// not I/O).
func Kernel(n int, seed int64) (KernelResult, error) {
	const reps = 3
	res := KernelResult{Tuples: n, Reps: reps}
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		return res, err
	}
	rel, err := datagen.Materialize(bank, n, seed)
	if err != nil {
		return res, err
	}

	d := plan.Defaults{Buckets: 500, GridSide: 32, SampleFactor: 40, Seed: seed}
	// One all-attribute rules query: every group has the same tally
	// shape, the one MultiCount serves.
	fast := []plan.Query{{Op: plan.OpRules}}
	// The general kernel counts the same 1-D groups plus a pair grid.
	general := append(fast, plan.Query{
		Op: plan.OpRules2D, Numeric: "Balance", NumericB: "Age",
		Objective: "CardLoan", ObjectiveValue: true,
	})

	dRef := d
	dRef.RefKernel = true
	refSet, refSec, err := kernelRun(rel, dRef, general, reps)
	if err != nil {
		return res, err
	}
	vecSet, vecSec, err := kernelRun(rel, d, general, reps)
	if err != nil {
		return res, err
	}
	res.RefSeconds, res.VecSeconds = refSec, vecSec
	if len(refSet.Groups) == 0 || len(refSet.Pairs) == 0 {
		return res, fmt.Errorf("kernel: reference run produced %d groups, %d pairs; the comparison is vacuous",
			len(refSet.Groups), len(refSet.Pairs))
	}
	if !reflect.DeepEqual(refSet.Groups, vecSet.Groups) {
		return res, fmt.Errorf("kernel: vectorized 1-D statistics deviate from the reference kernel")
	}
	for k, w := range refSet.Pairs {
		g, ok := vecSet.Pairs[k]
		if !ok || w.N != g.N || w.Hits != g.Hits ||
			!reflect.DeepEqual(w.Grid.U, g.Grid.U) || !reflect.DeepEqual(w.Grid.V, g.Grid.V) {
			return res, fmt.Errorf("kernel: vectorized pair grid %v deviates from the reference kernel", k)
		}
	}

	fastReq, err := resolveBatch(rel, d, fast)
	if err != nil {
		return res, err
	}
	if res.FastPathSeconds, err = multiCountRun(rel, fastReq, vecSet.Bounds, reps); err != nil {
		return res, err
	}

	perRow := func(s float64) float64 { return s * 1e9 / float64(n) }
	res.FastPathNsRow = perRow(res.FastPathSeconds)
	res.RefNsRow = perRow(res.RefSeconds)
	res.VecNsRow = perRow(res.VecSeconds)
	res.VecSpeedup = res.RefSeconds / res.VecSeconds
	res.GapToFast = res.VecSeconds / res.FastPathSeconds
	return res, nil
}

// Print writes the kernel comparison.
func (r KernelResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Counting kernels: %d in-memory tuples, best of %d runs\n", r.Tuples, r.Reps)
	fmt.Fprintf(w, "%28s  %10s  %10s\n", "configuration", "seconds", "ns/row")
	fmt.Fprintf(w, "%28s  %10.3f  %10.1f\n", "MultiCount (homogeneous)", r.FastPathSeconds, r.FastPathNsRow)
	fmt.Fprintf(w, "%28s  %10.3f  %10.1f\n", "general, reference kernel", r.RefSeconds, r.RefNsRow)
	fmt.Fprintf(w, "%28s  %10.3f  %10.1f\n", "general, vectorized kernel", r.VecSeconds, r.VecNsRow)
	fmt.Fprintf(w, "vectorized vs reference: %.2fx; gap to MultiCount: %.2fx\n", r.VecSpeedup, r.GapToFast)
}
