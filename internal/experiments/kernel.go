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
// register-optimized kernel? Two timings over the same in-memory
// relation: MultiCount called directly on a same-shape 1-D batch's
// groups, and a mixed 1-D+2-D batch (the same 1-D groups plus a pair
// grid) run through plan.Run. The experiment hard-fails unless the
// general kernel's 1-D groups are bit-identical to MultiCount's counts
// over the same boundaries.

// KernelResult is the counting-kernel experiment's structured result.
type KernelResult struct {
	Tuples int
	Reps   int
	// FastPath is the homogeneous batch counted by bucketing.MultiCount.
	FastPathSeconds float64
	FastPathNsRow   float64
	// Vec is the mixed 1-D+2-D batch under the general kernel.
	VecSeconds float64
	VecNsRow   float64
	// GapToFast is vec/fast — how much slower the general kernel is
	// than MultiCount (the mixed batch also fills a pair grid and its
	// timing includes the sampling pass, so ~1x means the gap is fully
	// closed).
	GapToFast float64
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
// It returns the counts of the first run, in req.GroupOrder.
func multiCountRun(rel relation.Relation, req *plan.Requirements, bounds map[plan.BoundKey]bucketing.Boundaries, reps int) ([]*bucketing.Counts, float64, error) {
	drivers := make([]int, len(req.GroupOrder))
	bs := make([]bucketing.Boundaries, len(req.GroupOrder))
	for i, k := range req.GroupOrder {
		drivers[i] = k.Driver
		bs[i] = bounds[plan.BoundKey{Attr: k.Driver, M: k.M, Exact: k.Exact}]
	}
	g := req.Groups[req.GroupOrder[0]]
	opts := bucketing.Options{Bools: g.Bools, Targets: g.Targets, Filter: g.Filter, TrackExtremes: g.TrackExtremes}
	var counts []*bucketing.Counts
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		cs, err := bucketing.MultiCount(rel, drivers, bs, opts)
		if err != nil {
			return nil, 0, err
		}
		if elapsed := time.Since(start).Seconds(); i == 0 || elapsed < best {
			best = elapsed
		}
		if i == 0 {
			counts = cs
		}
	}
	return counts, best, nil
}

// sameAsMultiCount reports whether the general kernel's group equals
// MultiCount's counts for it, rounded target sums included.
func sameAsMultiCount(s *plan.Stats1D, need *plan.GroupNeed, c *bucketing.Counts) bool {
	if s.M != c.M || s.N != c.N || s.Total != c.Total || s.NaNs != c.NaNs ||
		!reflect.DeepEqual(s.U, c.U) ||
		!reflect.DeepEqual(s.MinVal, c.MinVal) || !reflect.DeepEqual(s.MaxVal, c.MaxVal) {
		return false
	}
	for i, bc := range need.Bools {
		if !reflect.DeepEqual(s.V[bc], c.V[i]) {
			return false
		}
	}
	for i, t := range need.Targets {
		if !reflect.DeepEqual(s.Sum[t], c.Sum[i]) {
			return false
		}
	}
	return true
}

// Kernel measures both counting configurations on an n-tuple
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
	vecSet, vecSec, err := kernelRun(rel, d, general, reps)
	if err != nil {
		return res, err
	}
	res.VecSeconds = vecSec

	fastReq, err := resolveBatch(rel, d, fast)
	if err != nil {
		return res, err
	}
	counts, fastSec, err := multiCountRun(rel, fastReq, vecSet.Bounds, reps)
	if err != nil {
		return res, err
	}
	res.FastPathSeconds = fastSec
	if len(fastReq.GroupOrder) == 0 || len(vecSet.Pairs) == 0 {
		return res, fmt.Errorf("kernel: general run counted %d shared groups, %d pairs; the comparison is vacuous",
			len(fastReq.GroupOrder), len(vecSet.Pairs))
	}
	for i, k := range fastReq.GroupOrder {
		g, ok := vecSet.Groups[k]
		if !ok || !sameAsMultiCount(g, fastReq.Groups[k], counts[i]) {
			return res, fmt.Errorf("kernel: general-kernel group %+v deviates from MultiCount", k)
		}
	}

	perRow := func(s float64) float64 { return s * 1e9 / float64(n) }
	res.FastPathNsRow = perRow(res.FastPathSeconds)
	res.VecNsRow = perRow(res.VecSeconds)
	res.GapToFast = res.VecSeconds / res.FastPathSeconds
	return res, nil
}

// Print writes the kernel comparison.
func (r KernelResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Counting kernels: %d in-memory tuples, best of %d runs\n", r.Tuples, r.Reps)
	fmt.Fprintf(w, "%28s  %10s  %10s\n", "configuration", "seconds", "ns/row")
	fmt.Fprintf(w, "%28s  %10.3f  %10.1f\n", "MultiCount (homogeneous)", r.FastPathSeconds, r.FastPathNsRow)
	fmt.Fprintf(w, "%28s  %10.3f  %10.1f\n", "general kernel (mixed batch)", r.VecSeconds, r.VecNsRow)
	fmt.Fprintf(w, "gap to MultiCount: %.2fx\n", r.GapToFast)
}
