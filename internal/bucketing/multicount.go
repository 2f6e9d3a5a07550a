package bucketing

import (
	"fmt"
	"math"
	"math/rand"

	"optrule/internal/relation"
	"optrule/internal/sampling"
	"optrule/internal/stats"
)

// Fused multi-driver counting. The paper's premise is that the database
// is far larger than main memory, so the sequential-scan count is the
// currency of performance: counting d numeric attributes with d
// independent Count calls reads the relation d times end to end. The
// MultiCount family below produces a Counts per driver from ONE
// sequential scan, which is what lets the miner's whole MineAll
// pipeline cost one sampling scan plus one counting scan regardless of
// how many numeric attributes the relation has.

// validateMulti checks drivers/bounds shapes and every referenced
// attribute against the schema.
func validateMulti(s relation.Schema, drivers []int, bounds []Boundaries, opts Options) error {
	if len(drivers) == 0 {
		return fmt.Errorf("bucketing: no driver attributes")
	}
	if len(bounds) != len(drivers) {
		return fmt.Errorf("bucketing: %d drivers but %d boundary sets", len(drivers), len(bounds))
	}
	for _, d := range drivers {
		if err := validateOptions(s, d, opts); err != nil {
			return err
		}
	}
	return nil
}

// multiScanColumns assembles the column set of the fused counting scan:
// all drivers, then targets (numeric), then objective + filter
// attributes (bool, deduplicated).
func multiScanColumns(drivers []int, opts Options) (cols relation.ColumnSet, targetPos []int, boolPos []int, filterPos []int) {
	cols.Numeric = append(cols.Numeric, drivers...)
	targetPos = make([]int, len(opts.Targets))
	for k, a := range opts.Targets {
		targetPos[k] = len(cols.Numeric)
		cols.Numeric = append(cols.Numeric, a)
	}
	boolAt := map[int]int{}
	add := func(attr int) int {
		if p, ok := boolAt[attr]; ok {
			return p
		}
		p := len(cols.Bool)
		boolAt[attr] = p
		cols.Bool = append(cols.Bool, attr)
		return p
	}
	boolPos = make([]int, len(opts.Bools))
	for k, bc := range opts.Bools {
		boolPos[k] = add(bc.Attr)
	}
	filterPos = make([]int, len(opts.Filter))
	for k, bc := range opts.Filter {
		filterPos[k] = add(bc.Attr)
	}
	return cols, targetPos, boolPos, filterPos
}

// driverWork is one driver's tally state during the fused scan.
// Excluded rows — filter rejects and NaN drivers — never reach the
// tally code, and N is derived from the bucket populations at finalize
// time so the hot loop maintains no extra counter.
type driverWork struct {
	m     int // bucket count
	total int
	nans  int
	u     []int
	v     [][]int
	sum   []*stats.ExactSums
	minv  []float64 // nil unless TrackExtremes
	maxv  []float64
}

func newDriverWork(m int, opts Options) *driverWork {
	w := &driverWork{
		m:   m,
		u:   make([]int, m),
		v:   make([][]int, len(opts.Bools)),
		sum: newSums(m, opts),
	}
	for k := range w.v {
		w.v[k] = make([]int, m)
	}
	if opts.TrackExtremes {
		w.minv = make([]float64, m)
		w.maxv = make([]float64, m)
		for i := range w.minv {
			w.minv[i] = math.Inf(1)
			w.maxv[i] = math.Inf(-1)
		}
	}
	return w
}

// finalize converts the work state into Counts.
func (w *driverWork) finalize(opts Options) *Counts {
	c := newCounts(w.m, opts)
	c.Total = w.total
	c.NaNs = w.nans
	copy(c.U, w.u)
	for i := 0; i < w.m; i++ {
		c.N += w.u[i]
	}
	for k := range c.V {
		copy(c.V[k], w.v[k])
	}
	roundSums(c, w.sum)
	if c.MinVal != nil {
		copy(c.MinVal, w.minv)
		copy(c.MaxVal, w.maxv)
	}
	return c
}

// multiScratch holds per-scan scratch buffers reused across batches so
// the hot loops allocate nothing.
type multiScratch struct {
	mask []bool // filter verdict per row; nil when there is no filter
}

// multiCountBatch tallies one batch into every driver's work state. The
// inner loops are batch-optimized: the filter mask is computed once per
// batch (not once per driver per row), Total is hoisted out of the row
// loops, and each driver runs ONE tight loop over its column slice in
// which the bucket index is located with the slot-table lookup of
// Boundaries.Locate inlined (the call is too large for the compiler to
// inline and runs once per tuple per driver) and every tally —
// population, extremes, objective counts, target sums — happens while
// the value and bucket index are still in registers. The objective
// tallies are unrolled for the common low objective counts (the switch
// predicts perfectly, and the comparisons compile to flagless
// increments), so the loop body stays branch-light.
func multiCountBatch(works []*driverWork, b *relation.Batch, bounds []Boundaries, opts Options,
	targetPos, boolPos, filterPos []int, scratch *multiScratch) {
	n := b.Len
	// Filter mask: one pass per filter condition over its column.
	var mask []bool
	if len(opts.Filter) > 0 {
		if cap(scratch.mask) < n {
			scratch.mask = make([]bool, n)
		}
		mask = scratch.mask[:n]
		for row := range mask {
			mask[row] = true
		}
		for k, bc := range opts.Filter {
			col := b.Bool[filterPos[k]]
			want := bc.Want
			for row := 0; row < n; row++ {
				if col[row] != want {
					mask[row] = false
				}
			}
		}
	}
	nb := len(opts.Bools)
	var b0, b1, b2 []bool
	var w0, w1, w2 bool
	if nb > 0 {
		b0, w0 = b.Bool[boolPos[0]], opts.Bools[0].Want
	}
	if nb > 1 {
		b1, w1 = b.Bool[boolPos[1]], opts.Bools[1].Want
	}
	if nb > 2 {
		b2, w2 = b.Bool[boolPos[2]], opts.Bools[2].Want
	}
	nt := len(opts.Targets)

	for d, w := range works {
		col := b.Numeric[d]
		bd := bounds[d]
		w.total += n
		cuts, base := bd.cuts, bd.slotBase
		slo, sscale := bd.slotLo, bd.slotScale
		nc := len(cuts)
		kslots := len(base) - 1
		u := w.u
		minv, maxv := w.minv, w.maxv
		var v0, v1, v2 []int
		if nb > 0 {
			v0 = w.v[0]
		}
		if nb > 1 {
			v1 = w.v[1]
		}
		if nb > 2 {
			v2 = w.v[2]
		}
		for row := 0; row < n; row++ {
			if mask != nil && !mask[row] {
				continue
			}
			x := col[row]
			if x != x { // NaN
				w.nans++
				continue
			}
			var i int
			switch {
			case base == nil:
				i = bd.Locate(x)
			case x <= cuts[0]:
				i = 0
			case x > cuts[nc-1]:
				i = nc
			default:
				s := int((x - slo) * sscale) // x > cuts[0] ⇒ s >= 0
				if s >= kslots {
					s = kslots - 1
				}
				lo, hi := int(base[s]), int(base[s+1])
				if hi >= nc {
					hi = nc - 1
				}
				for lo < hi {
					mid := int(uint(lo+hi) >> 1)
					if x <= cuts[mid] {
						hi = mid
					} else {
						lo = mid + 1
					}
				}
				i = lo
			}
			u[i]++
			if minv != nil {
				if x < minv[i] {
					minv[i] = x
				}
				if x > maxv[i] {
					maxv[i] = x
				}
			}
			switch nb {
			case 0:
			case 1:
				e0 := 0
				if b0[row] == w0 {
					e0 = 1
				}
				v0[i] += e0
			case 2:
				e0, e1 := 0, 0
				if b0[row] == w0 {
					e0 = 1
				}
				if b1[row] == w1 {
					e1 = 1
				}
				v0[i] += e0
				v1[i] += e1
			case 3:
				e0, e1, e2 := 0, 0, 0
				if b0[row] == w0 {
					e0 = 1
				}
				if b1[row] == w1 {
					e1 = 1
				}
				if b2[row] == w2 {
					e2 = 1
				}
				v0[i] += e0
				v1[i] += e1
				v2[i] += e2
			default:
				for k, bc := range opts.Bools {
					e := 0
					if b.Bool[boolPos[k]][row] == bc.Want {
						e = 1
					}
					w.v[k][i] += e
				}
			}
			for k := 0; k < nt; k++ {
				w.sum[k].Add(i, b.Numeric[targetPos[k]][row])
			}
		}
	}
}

// filterPredicate translates a non-empty Options.Filter into the
// storage layer's pushdown predicate, or returns nil when there is no
// filter to push. Every filter condition is a Boolean conjunct, which
// is exactly what the v3 zone maps (per-block true counts) can refute
// wholesale.
func filterPredicate(opts Options) *relation.Predicate {
	if len(opts.Filter) == 0 {
		return nil
	}
	p := &relation.Predicate{}
	for _, bc := range opts.Filter {
		p.Bools = append(p.Bools, relation.BoolPredicate{Attr: bc.Attr, Want: bc.Want})
	}
	return p
}

// scanMaybePruned drives the fused counting scan: when a filter
// predicate exists and the relation supports pruned scans, storage
// block groups the filter provably rejects are skipped without being
// read or decoded — a skipped row touches only each driver's Total,
// which the skip callback settles directly. Otherwise the plain scan
// runs and the batch kernel's mask does all the filtering; the counts
// are identical either way because pruning only elides rows the mask
// would reject.
func scanMaybePruned(rel relation.Relation, cols relation.ColumnSet, pred *relation.Predicate,
	works []*driverWork, fn func(*relation.Batch) error) error {
	if pred != nil {
		if prs, ok := rel.(relation.PrunedRangeScanner); ok {
			return prs.ScanRangePruned(0, rel.NumTuples(), cols, pred, func(rows int) error {
				for _, w := range works {
					w.total += rows
				}
				return nil
			}, fn)
		}
	}
	return rel.Scan(cols, fn)
}

// MultiCount is the fused counting scan: given boundaries for every
// driver attribute, it produces a Counts per driver — each identical to
// what Count(rel, drivers[d], bounds[d], opts) would return — from ONE
// sequential scan of the relation. opts (objectives, targets, filter,
// extremes) applies to every driver. A filter is pushed down to the
// storage layer when the relation supports pruned scans (see
// scanMaybePruned).
func MultiCount(rel relation.Relation, drivers []int, bounds []Boundaries, opts Options) ([]*Counts, error) {
	if err := validateMulti(rel.Schema(), drivers, bounds, opts); err != nil {
		return nil, err
	}
	cols, targetPos, boolPos, filterPos := multiScanColumns(drivers, opts)
	works := make([]*driverWork, len(drivers))
	for d := range works {
		works[d] = newDriverWork(bounds[d].NumBuckets(), opts)
	}
	scratch := &multiScratch{}
	err := scanMaybePruned(rel, cols, filterPredicate(opts), works,
		func(b *relation.Batch) error {
			multiCountBatch(works, b, bounds, opts, targetPos, boolPos, filterPos, scratch)
			return nil
		})
	if err != nil {
		return nil, err
	}
	cs := make([]*Counts, len(drivers))
	for d, w := range works {
		cs[d] = w.finalize(opts)
	}
	return cs, nil
}

// MultiSampledBoundaries fuses steps 1–3 of Algorithm 3.1 for several
// numeric attributes into ONE sampling scan: each attrs[k] gets an
// independent with-replacement sample of m·sampleFactor values driven by
// rngs[k] (the same stream SampledBoundaries would consume), and its
// equi-depth cut points are read off the sorted sample. Per-attribute
// results are identical to SampledBoundaries(rel, attrs[k], m,
// sampleFactor, rngs[k]).
//
// If exactDomainLimit > 0, the same scan also tracks each attribute's
// distinct value set; attributes with at most exactDomainLimit distinct
// finite values (and no NaNs) get finest buckets (Definition 2.5) —
// one bucket per distinct value — exactly as DistinctValueBoundaries
// would build, while the rest fall back to the sampled cut points.
func MultiSampledBoundaries(rel relation.Relation, attrs []int, m, sampleFactor, exactDomainLimit int, rngs []*rand.Rand) ([]Boundaries, error) {
	if m < 1 {
		return nil, fmt.Errorf("bucketing: bucket count %d must be positive", m)
	}
	if len(attrs) != len(rngs) {
		return nil, fmt.Errorf("bucketing: %d attributes but %d rngs", len(attrs), len(rngs))
	}
	specs := make([]BoundarySpec, len(attrs))
	for k, attr := range attrs {
		specs[k] = BoundarySpec{Attr: attr, M: m, SampleFactor: sampleFactor,
			ExactDomainLimit: exactDomainLimit}
	}
	return MultiSampledBoundarySpecs(rel, specs, rngs)
}

// BoundarySpec is one attribute's boundary request in a fused sampling
// scan: M almost equi-depth buckets from a sample of M·SampleFactor
// values, with the finest-bucket promotion (Definition 2.5) when
// ExactDomainLimit > 0. Specs are independent: the same scan can build
// a 1000-bucket 1-D bucketing and a 64-bucket 2-D grid axis, each from
// its own random stream.
type BoundarySpec struct {
	Attr             int
	M                int
	SampleFactor     int
	ExactDomainLimit int // 0 = no finest-bucket promotion
}

// MultiSampledBoundarySpecs generalizes MultiSampledBoundaries to
// heterogeneous per-attribute resolutions: every spec's result is
// identical to SampledBoundaries (or the finest-bucket path) run alone
// with rngs[k], while the relation is scanned at most once for the
// whole set.
func MultiSampledBoundarySpecs(rel relation.Relation, specs []BoundarySpec, rngs []*rand.Rand) ([]Boundaries, error) {
	if len(specs) != len(rngs) {
		return nil, fmt.Errorf("bucketing: %d specs but %d rngs", len(specs), len(rngs))
	}
	reqs := make([]sampling.ColumnRequest, len(specs))
	for k, spec := range specs {
		if spec.SampleFactor < 1 {
			return nil, fmt.Errorf("bucketing: sample factor %d must be positive", spec.SampleFactor)
		}
		if spec.M < 1 {
			return nil, fmt.Errorf("bucketing: bucket count %d must be positive", spec.M)
		}
		s := spec.M * spec.SampleFactor
		if spec.M == 1 {
			s = 0 // finest-bucket detection may still need the scan; sampling does not
		}
		reqs[k] = sampling.ColumnRequest{Attr: spec.Attr, S: s, Rng: rngs[k],
			TrackDistinct: spec.ExactDomainLimit}
	}
	samples, err := sampling.MultiColumnRequests(rel, reqs)
	if err != nil {
		return nil, err
	}
	// Each spec's NaN strip, sort, and cut-point pass touches only its
	// own sample and output slot, so the specs run on their own workers;
	// the reported error is the first in spec order.
	out := make([]Boundaries, len(specs))
	errs := make([]error, len(specs))
	sampling.FanOut(len(specs), func(k int) {
		out[k], errs[k] = specBoundaries(specs[k], samples[k])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// specBoundaries builds one spec's boundaries from its share of the
// fused sampling pass.
func specBoundaries(spec BoundarySpec, sample sampling.MultiSample) (Boundaries, error) {
	if spec.ExactDomainLimit > 0 && sample.Distinct != nil {
		// Finest buckets: cut at every distinct value except the
		// largest, so bucket i is exactly [v_i, v_i].
		return NewBoundaries(sample.Distinct[:len(sample.Distinct)-1])
	}
	if spec.M == 1 {
		return Boundaries{}, nil
	}
	// Missing values (NaN) carry no order information; drop them from
	// the sample so cut points stay well defined, matching
	// SampledBoundaries.
	clean := sample.Sample[:0]
	for _, x := range sample.Sample {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	if len(clean) == 0 {
		return Boundaries{}, fmt.Errorf("bucketing: attribute %d sampled only NaN values", spec.Attr)
	}
	stats.SortFloat64s(clean)
	return FromSortedSample(clean, spec.M)
}
