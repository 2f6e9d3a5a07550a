package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"optrule/internal/bucketing"
	"optrule/internal/core"
	"optrule/internal/miner"
	"optrule/internal/plan"
	"optrule/internal/region"
	"optrule/internal/relation"
	"optrule/internal/sampling"
	"optrule/internal/stats"
)

// The layer probes: each times one call into a layer's exported API
// from the benchmark's own code, on the workload's data and queries.

// target describes one workload's op for the probes.
type target struct {
	rel storage
	d   plan.Defaults
	// opBatch is the op's batch; cold reports whether the op starts
	// from an empty cache (sampling and counting) or is served by cache.
	opBatch []miner.Query
	cold    bool
	// pruned reports whether the op's counting scan is a pruned scan
	// (a filtered batch on the MultiCount path).
	pruned bool
	// cache holds opBatch's statistics; pairCache (nil: cache) holds
	// the pair grids of pairBatch, which the region probes run on.
	cache     *plan.LRUCache
	pairBatch []miner.Query
	pairCache *plan.LRUCache
}

// resolveAll resolves a batch into its requirements.
func resolveAll(rel relation.Relation, d plan.Defaults, queries []miner.Query) ([]*plan.Resolved, *plan.Requirements, error) {
	req := plan.NewRequirements()
	out := make([]*plan.Resolved, len(queries))
	for i, q := range queries {
		r, err := plan.Resolve(rel, d, q)
		if err != nil {
			return nil, nil, fmt.Errorf("resolving query %d (%s): %w", i, q.Op, err)
		}
		out[i] = r
		req.Add(r)
	}
	return out, req, nil
}

// columnsOf is the union of columns a requirement set's counting scan
// reads.
func columnsOf(req *plan.Requirements) relation.ColumnSet {
	var cols relation.ColumnSet
	num, boo := map[int]bool{}, map[int]bool{}
	addNum := func(a int) {
		if !num[a] {
			num[a] = true
			cols.Numeric = append(cols.Numeric, a)
		}
	}
	addBool := func(a int) {
		if !boo[a] {
			boo[a] = true
			cols.Bool = append(cols.Bool, a)
		}
	}
	for _, k := range req.GroupOrder {
		g := req.Groups[k]
		addNum(g.Driver)
		for _, t := range g.Targets {
			addNum(t)
		}
		for _, b := range g.Filter {
			addBool(b.Attr)
		}
		for _, b := range g.Bools {
			addBool(b.Attr)
		}
	}
	for _, k := range req.PairOrder {
		p := req.Pairs[k]
		addNum(p.A)
		addNum(p.B)
		addBool(p.Obj.Attr)
	}
	return cols
}

// readColumns are the read op's columns.
func readColumns(s relation.Schema) relation.ColumnSet {
	return relation.ColumnSet{Numeric: s.NumericIndices(), Bool: s.BooleanIndices()}
}

// boundKeys lists the boundary sets a cold run of req samples, in
// the executor's order.
func boundKeys(req *plan.Requirements) []plan.BoundKey {
	var keys []plan.BoundKey
	seen := map[plan.BoundKey]bool{}
	add := func(k plan.BoundKey) {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, gk := range req.GroupOrder {
		add(plan.BoundKey{Attr: gk.Driver, M: gk.M, Exact: gk.Exact})
	}
	for _, pk := range req.PairOrder {
		add(plan.BoundKey{Attr: pk.A, M: pk.Side})
		add(plan.BoundKey{Attr: pk.B, M: pk.Side})
	}
	return keys
}

// sample draws the Algorithm 3.1 samples for keys in one point-read
// pass, from the per-attribute streams the executor uses.
func sample(rel relation.Relation, d plan.Defaults, keys []plan.BoundKey) ([]sampling.MultiSample, int, error) {
	reqs := make([]sampling.ColumnRequest, len(keys))
	points := 0
	for i, k := range keys {
		reqs[i] = sampling.ColumnRequest{Attr: k.Attr, S: k.M * d.SampleFactor, Rng: plan.AttrRNG(d.Seed, k.Attr)}
		points += reqs[i].S
	}
	out, err := sampling.MultiColumnRequests(rel, reqs)
	return out, points, err
}

// cut turns samples into equi-depth boundaries as the executor does:
// drop NaN, sort, cut.
func cut(keys []plan.BoundKey, samples []sampling.MultiSample) (map[plan.BoundKey]bucketing.Boundaries, error) {
	out := make(map[plan.BoundKey]bucketing.Boundaries, len(keys))
	for i, k := range keys {
		clean := make([]float64, 0, len(samples[i].Sample))
		for _, x := range samples[i].Sample {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		stats.SortFloat64s(clean)
		b, err := bucketing.FromSortedSample(clean, k.M)
		if err != nil {
			return nil, err
		}
		out[k] = b
	}
	return out, nil
}

// boundedCache is a fresh cache holding only the given boundaries, so
// a plan.Run against it skips sampling and runs the counting scan.
func boundedCache(bounds map[plan.BoundKey]bucketing.Boundaries, rows int) *plan.LRUCache {
	c := plan.NewCache(0)
	for k, b := range bounds {
		c.PutBounds(k, b, rows)
	}
	return c
}

// pruneStats is what one pruned scan saw.
type pruneStats struct {
	inRange, skipped, delivered, matched int
	d                                    time.Duration
}

func (p pruneStats) prunedRatio() float64 { return float64(p.skipped) / float64(p.inRange) }

func (p pruneStats) matchRatio() float64 {
	if p.delivered == 0 {
		return 0
	}
	return float64(p.matched) / float64(p.delivered)
}

// prunedScan runs ScanRangePruned over the whole relation with the
// read op's predicate (filter attribute = yes) and counts what the
// skip callback skipped and what the delivered rows matched.
func prunedScan(rel storage, cols relation.ColumnSet, filter int) (pruneStats, error) {
	pos := -1
	for i, a := range cols.Bool {
		if a == filter {
			pos = i
		}
	}
	if pos < 0 {
		cols.Bool = append(append([]int(nil), cols.Bool...), filter)
		pos = len(cols.Bool) - 1
	}
	pred := &relation.Predicate{Bools: []relation.BoolPredicate{{Attr: filter, Want: true}}}
	p := pruneStats{inRange: rel.NumTuples()}
	start := time.Now()
	err := rel.ScanRangePruned(0, p.inRange, cols, pred,
		func(rows int) error { p.skipped += rows; return nil },
		func(b *relation.Batch) error {
			p.delivered += b.Len
			for _, v := range b.Bool[pos][:b.Len] {
				if v {
					p.matched++
				}
			}
			return nil
		})
	p.d = time.Since(start)
	return p, err
}

// decodeColumn reads one numeric column into memory.
func decodeColumn(rel relation.Relation, attr int) ([]float64, error) {
	col := make([]float64, 0, rel.NumTuples())
	err := rel.Scan(relation.ColumnSet{Numeric: []int{attr}}, func(b *relation.Batch) error {
		col = append(col, b.Numeric[0][:b.Len]...)
		return nil
	})
	return col, err
}

// floats widens integer counts for the kernels.
func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// kernelTimes records a span per kernel call under one parent span
// and sums the time per kernel name.
type kernelTimes struct {
	tr         *tracer
	parent, op int
	total      map[string]time.Duration
}

func newKernelTimes(tr *tracer, parent, op int) *kernelTimes {
	return &kernelTimes{tr: tr, parent: parent, op: op, total: map[string]time.Duration{}}
}

func (k *kernelTimes) time(name string, f func() error) error {
	d, err := k.tr.span(name, k.parent, k.op, f)
	k.total[name] += d
	return err
}

// coreKernels runs every Section 4 kernel the workload's 1-D groups
// feed: for each (group, objective), the optimized-confidence,
// optimized-support, top-k and optimized-gain ranges.
func coreKernels(d plan.Defaults, req *plan.Requirements, cache *plan.LRUCache, kt *kernelTimes) error {
	for _, gk := range req.GroupOrder {
		need := req.Groups[gk]
		if len(need.Bools) == 0 {
			continue
		}
		st, ok := cache.Get1D(gk)
		if !ok {
			return fmt.Errorf("core probe: group %+v not cached", gk)
		}
		c, err := st.Counts(need.Bools, nil, true)
		if err != nil {
			return err
		}
		cc, _ := c.Compact()
		minSup := d.MinSupport * float64(cc.N)
		for k := range need.Bools {
			v := floats(cc.V[k])
			if err := kt.time("core.confidence", func() error {
				_, _, err := core.OptimalSlopePair(cc.U, v, minSup)
				return err
			}); err != nil {
				return err
			}
			if err := kt.time("core.support", func() error {
				_, _, err := core.OptimalSupportPair(cc.U, v, d.MinConfidence)
				return err
			}); err != nil {
				return err
			}
			if err := kt.time("core.topk", func() error {
				_, err := core.TopKSlopePairs(cc.U, v, minSup, 5)
				return err
			}); err != nil {
				return err
			}
			if err := kt.time("core.gain", func() error {
				_, _, _, err := core.MaxGainRange(cc.U, v, d.MinConfidence)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// regionKernels runs the §1.4 kernels on every cached pair grid of
// req, one worker each.
func regionKernels(d plan.Defaults, req *plan.Requirements, cache *plan.LRUCache, kt *kernelTimes) error {
	for _, pk := range req.PairOrder {
		st, ok := cache.Get2D(pk)
		if !ok {
			return fmt.Errorf("region probe: pair %+v not cached", pk)
		}
		g := st.Grid
		if err := kt.time("region.rect", func() error {
			if _, _, err := region.OptimalRectConfidenceParallel(g, d.MinSupport*float64(st.N), 1); err != nil {
				return err
			}
			_, _, err := region.OptimalRectSupportParallel(g, d.MinConfidence, 1)
			return err
		}); err != nil {
			return err
		}
		if err := kt.time("region.xmonotone", func() error {
			_, _, err := region.MaxGainXMonotoneParallel(g, d.MinConfidence, 1)
			return err
		}); err != nil {
			return err
		}
		if err := kt.time("region.rectconvex", func() error {
			_, _, err := region.MaxGainRectilinearConvexParallel(g, d.MinConfidence, 1)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// extractReplay re-runs the extraction kernels each resolved query of
// an op uses, over the op's working set, timing them per kernel. It
// follows the session's extraction but runs every kernel on one
// worker.
func extractReplay(rs []*plan.Resolved, set *plan.StatsSet, kt *kernelTimes) error {
	for _, r := range rs {
		var err error
		switch r.Op {
		case plan.OpRules:
			for pos := range r.Drivers {
				st := set.Groups[r.Keys[pos]]
				var c *bucketing.Counts
				if c, err = st.Counts(r.Objs, nil, true); err != nil {
					return err
				}
				cc, _ := c.Compact()
				for k := range r.Objs {
					if err = kinds1D(kt, r, cc.U, floats(cc.V[k]), cc.N); err != nil {
						return err
					}
				}
			}
		case plan.OpConjunctive:
			var c *bucketing.Counts
			if c, err = set.Groups[r.UKey].Counts(nil, nil, true); err != nil {
				return err
			}
			cc, keep := c.Compact()
			v := make([]float64, len(keep))
			vs := set.Groups[r.VKey]
			for j, i := range keep {
				v[j] = float64(vs.U[i])
			}
			err = kinds1D(kt, r, cc.U, v, cc.N)
		case plan.OpTopK:
			var c *bucketing.Counts
			if c, err = set.Groups[r.Keys[0]].Counts(r.Objs, nil, true); err != nil {
				return err
			}
			cc, _ := c.Compact()
			v := floats(cc.V[0])
			err = kt.time("core.topk", func() error {
				var err error
				if r.Kinds[0] == miner.OptimizedSupport {
					_, err = core.TopKSupportPairs(cc.U, v, r.MinConfidence, r.K)
				} else {
					_, err = core.TopKSlopePairs(cc.U, v, r.MinSupport*float64(cc.N), r.K)
				}
				return err
			})
		case plan.OpAverage:
			var c *bucketing.Counts
			if c, err = set.Groups[r.Keys[0]].Counts(nil, []int{r.Target}, true); err != nil {
				return err
			}
			cc, _ := c.Compact()
			err = kt.time("core.confidence", func() error {
				_, _, err := core.OptimalSlopePair(cc.U, cc.Sum[0], r.MinSupport*float64(cc.N))
				return err
			})
		case plan.OpRules2D:
			err = regionReplay(kt, r, set)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// kinds1D runs one 1-D range's kernels for the query's rule kinds.
func kinds1D(kt *kernelTimes, r *plan.Resolved, u []int, v []float64, n int) error {
	for _, kind := range r.Kinds {
		var err error
		switch kind {
		case miner.OptimizedConfidence:
			err = kt.time("core.confidence", func() error {
				_, _, err := core.OptimalSlopePair(u, v, r.MinSupport*float64(n))
				return err
			})
		case miner.OptimizedSupport:
			err = kt.time("core.support", func() error {
				_, _, err := core.OptimalSupportPair(u, v, r.MinConfidence)
				return err
			})
		case miner.OptimizedGain:
			err = kt.time("core.gain", func() error {
				_, _, _, err := core.MaxGainRange(u, v, r.MinConfidence)
				return err
			})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// regionReplay runs a 2-D query's rectangle kinds and region classes
// on each of its pair grids.
func regionReplay(kt *kernelTimes, r *plan.Resolved, set *plan.StatsSet) error {
	for _, pk := range r.PairKys {
		st := set.Pairs[pk]
		if st.N == 0 {
			continue
		}
		g := st.Grid
		for _, kind := range r.Kinds {
			err := kt.time("region.rect", func() error {
				var err error
				switch kind {
				case miner.OptimizedConfidence:
					_, _, err = region.OptimalRectConfidenceParallel(g, r.MinSupport*float64(st.N), 1)
				case miner.OptimizedSupport:
					_, _, err = region.OptimalRectSupportParallel(g, r.MinConfidence, 1)
				case miner.OptimizedGain:
					_, _, err = region.MaxGainRectParallel(g, r.MinConfidence, 1)
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		for _, class := range r.Regions {
			var err error
			switch class {
			case miner.XMonotoneClass:
				err = kt.time("region.xmonotone", func() error {
					_, _, err := region.MaxGainXMonotoneParallel(g, r.MinConfidence, 1)
					return err
				})
			case miner.RectilinearConvexClass:
				err = kt.time("region.rectconvex", func() error {
					_, _, err := region.MaxGainRectilinearConvexParallel(g, r.MinConfidence, 1)
					return err
				})
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// probeResult carries the probe timings the op split needs.
type probeResult struct {
	scan, prunedScan time.Duration
	// locate is the time to locate every row the op's counting scan
	// delivers once per boundary set of the op.
	locate time.Duration
}

// probeLayers times one call into each layer on the workload's data
// under a "probe" span and records the per-layer metrics.
func probeLayers(tr *tracer, op int, t *target, vals samples) (probeResult, error) {
	root := tr.begin("probe", 0, op)
	defer tr.end(root)
	var pr probeResult
	n := t.rel.NumTuples()
	schema := t.rel.Schema()
	rows := float64(n)

	var req *plan.Requirements
	d, err := tr.span("plan.resolve", root, op, func() error {
		var err error
		_, req, err = resolveAll(t.rel, t.d, t.opBatch)
		return err
	})
	if err != nil {
		return pr, err
	}
	vals.add("plan.resolve_us", us(d)/float64(len(t.opBatch)))

	cols := columnsOf(req)
	t.rel.ResetBytesRead()
	pr.scan, err = tr.span("relation.scan", root, op, func() error {
		return t.rel.Scan(cols, func(*relation.Batch) error { return nil })
	})
	if err != nil {
		return pr, err
	}
	decoded := rows * float64(8*len(cols.Numeric)+len(cols.Bool))
	vals.add("relation.scan_ns_per_row", float64(pr.scan.Nanoseconds())/rows)
	vals.add("relation.decoded_gbps", decoded/pr.scan.Seconds()/1e9)
	vals.add("relation.read_bytes", float64(t.rel.BytesRead()))

	var ps pruneStats
	if _, err := tr.span("relation.pruned_scan", root, op, func() error {
		var err error
		ps, err = prunedScan(t.rel, cols, schema.Index(filterAttr))
		return err
	}); err != nil {
		return pr, err
	}
	pr.prunedScan = ps.d
	vals.add("relation.pruned_scan_ns_per_row", float64(ps.d.Nanoseconds())/rows)
	vals.add("relation.pruned_rows_ratio", ps.prunedRatio())
	vals.add("relation.filter_match_ratio", ps.matchRatio())

	keys := boundKeys(req)
	var smp []sampling.MultiSample
	var points int
	t.rel.ResetBytesRead()
	d, err = tr.span("sampling.sample", root, op, func() error {
		var err error
		smp, points, err = sample(t.rel, t.d, keys)
		return err
	})
	if err != nil {
		return pr, err
	}
	vals.add("sampling.sample_ms", ms(d))
	vals.add("sampling.points", float64(points))
	vals.add("sampling.read_bytes", float64(t.rel.BytesRead()))

	var bounds map[plan.BoundKey]bucketing.Boundaries
	d, err = tr.span("bucketing.cut", root, op, func() error {
		var err error
		bounds, err = cut(keys, smp)
		return err
	})
	if err != nil {
		return pr, err
	}
	vals.add("bucketing.cut_ms", ms(d))

	// Locate every row once per boundary set the op's counting scan
	// uses; the metric is the Balance column at the default resolution.
	balance := plan.BoundKey{Attr: schema.Index("Balance"), M: t.d.Buckets}
	if _, ok := bounds[balance]; !ok {
		return pr, errors.New("the op samples no Balance boundaries at the default resolution")
	}
	// A pruned scan locates only the rows it delivers.
	located := rows
	if t.pruned {
		located = float64(ps.delivered)
	}
	columns := map[int][]float64{}
	for _, k := range keys {
		col, ok := columns[k.Attr]
		if !ok {
			if col, err = decodeColumn(t.rel, k.Attr); err != nil {
				return pr, err
			}
			columns[k.Attr] = col
		}
		idx := make([]int32, len(col))
		b := bounds[k]
		d, _ = tr.span("bucketing.locate", root, op, func() error {
			b.LocateBatch(col, idx)
			return nil
		})
		pr.locate += time.Duration(float64(d) * located / float64(len(col)))
		if k == balance {
			vals.add("bucketing.locate_ns_per_row", float64(d.Nanoseconds())/float64(len(col)))
		}
	}

	// The read op's schedule on the homogeneous MultiCount path.
	_, rreq, err := resolveAll(t.rel, t.d, readBatch())
	if err != nil {
		return pr, err
	}
	var drivers []int
	var bs []bucketing.Boundaries
	for _, gk := range rreq.GroupOrder {
		b, ok := bounds[plan.BoundKey{Attr: gk.Driver, M: gk.M, Exact: gk.Exact}]
		if !ok {
			return pr, fmt.Errorf("no boundaries for the read op's driver %d", gk.Driver)
		}
		drivers = append(drivers, gk.Driver)
		bs = append(bs, b)
	}
	g0 := rreq.Groups[rreq.GroupOrder[0]]
	opts := bucketing.Options{Bools: g0.Bools, Targets: g0.Targets, Filter: g0.Filter, TrackExtremes: g0.TrackExtremes}
	d, err = tr.span("bucketing.multicount", root, op, func() error {
		_, err := bucketing.MultiCount(t.rel, drivers, bs, opts)
		return err
	})
	if err != nil {
		return pr, err
	}
	vals.add("bucketing.multicount_ns_per_row", float64(d.Nanoseconds())/rows)

	d, err = tr.span("plan.lookup", root, op, func() error {
		_, err := plan.Run(t.rel, t.d, t.cache, req)
		return err
	})
	if err != nil {
		return pr, err
	}
	vals.add("plan.lookup_us", us(d))

	// The general counting kernel on cold-batch's requirements, with
	// the boundaries already cached so only the counting scan runs.
	_, creq, err := resolveAll(t.rel, t.d, coldBatch())
	if err != nil {
		return pr, err
	}
	var missing []plan.BoundKey
	for _, k := range boundKeys(creq) {
		if _, ok := bounds[k]; !ok {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		extra, _, err := sample(t.rel, t.d, missing)
		if err != nil {
			return pr, err
		}
		more, err := cut(missing, extra)
		if err != nil {
			return pr, err
		}
		for k, b := range more {
			bounds[k] = b
		}
	}
	cache := boundedCache(bounds, n)
	d, err = tr.span("plan.count", root, op, func() error {
		_, err := plan.Run(t.rel, t.d, cache, creq)
		return err
	})
	if err != nil {
		return pr, err
	}
	count := float64(d.Nanoseconds()) / rows
	vals.add("plan.count_ns_per_row", count)
	vals.add("plan.tally_ns_per_row", count-float64(pr.scan.Nanoseconds())/rows)

	kt := newKernelTimes(tr, root, op)
	if err := coreKernels(t.d, req, t.cache, kt); err != nil {
		return pr, err
	}
	_, preq, err := resolveAll(t.rel, t.d, t.pairBatch)
	if err != nil {
		return pr, err
	}
	pc := t.pairCache
	if pc == nil {
		pc = t.cache
	}
	if err := regionKernels(t.d, preq, pc, kt); err != nil {
		return pr, err
	}
	for _, k := range []string{"core.confidence", "core.support", "core.topk", "core.gain"} {
		vals.add(k+"_us", us(kt.total[k]))
	}
	for _, k := range []string{"region.rect", "region.xmonotone", "region.rectconvex"} {
		vals.add(k+"_ms", ms(kt.total[k]))
	}
	return pr, nil
}

// ingestProbe runs one ingest op of env through its layer calls under
// an "ingest" span: append, reopen, delta fold, re-query.
func ingestProbe(tr *tracer, op int, env *ingestWL, g *gate, vals samples) (time.Duration, error) {
	c, err := env.nextCycle(g)
	if err != nil {
		return 0, err
	}
	before, err := dirSize(env.dir)
	if err != nil {
		return 0, err
	}
	root := tr.begin("ingest", 0, op)
	d, err := tr.span("relation.append", root, op, func() error {
		_, err := relation.AppendToSharded(env.manifest, env.tails[c], relation.AppendOptions{})
		return err
	})
	vals.add("relation.append_ms", ms(d))
	var ds miner.DeltaStats
	var answers []miner.Answer
	if err == nil {
		d, err = tr.span("relation.reopen", root, op, func() error {
			_, err := env.rel.Reopen()
			return err
		})
		vals.add("relation.reopen_us", us(d))
	}
	if err == nil {
		d, err = tr.span("plan.delta", root, op, func() error {
			var err error
			ds, err = env.warm.Refresh()
			return err
		})
		vals.add("plan.delta_ms", ms(d))
	}
	if err == nil {
		_, err = tr.span("miner.requery", root, op, func() error {
			var err error
			answers, err = env.warm.ExecuteBatch(ingestBatch())
			return err
		})
	}
	total := tr.end(root)
	if err == nil {
		env.warmAns = answers
		err = answerErr(answers)
	}
	if err == nil && ds.Resamples == 0 && ds.RowsScanned != int64(env.delta) {
		err = fmt.Errorf("ingest probe: the delta fold scanned %d rows for %d appended", ds.RowsScanned, env.delta)
	}
	g.op(err)
	after, serr := dirSize(env.dir)
	if serr != nil {
		return 0, serr
	}
	vals.add("relation.append_written_bytes", float64(after-before))
	vals.add("plan.delta_rows", float64(ds.RowsScanned))
	vals.add("plan.resamples", float64(ds.Resamples))
	vals.add("plan.entries_folded", float64(ds.EntriesFolded))
	vals.add("plan.entries_dropped", float64(ds.EntriesDropped))
	return total, nil
}

// dirSize is the total size of the files in dir.
func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if !info.IsDir() {
			n += info.Size()
		}
	}
	return n, nil
}
