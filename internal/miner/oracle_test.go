package miner

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/core"
	"optrule/internal/plan"
	"optrule/internal/region"
	"optrule/internal/relation"
)

// The brute-force mining oracle. It rebuilds every answer the session
// gives from raw tuples, sharing no counting code with it:
//
//   - boundaries come from the single-attribute samplers
//     (bucketing.SampledBoundaries, or DistinctValueBoundaries for
//     finest buckets) on the per-attribute stream plan.AttrRNG, so they
//     also pin the session's fused sampling scan;
//   - every tuple is placed with a plain comparison loop over
//     Boundaries.Cuts (Algorithm 3.1, step 4), and counts, objective
//     hits, and extremes accumulate row by row in row order, target
//     sums exactly in math/big, rounded once per bucket;
//   - ranges come from the O(M²) enumerators core.NaiveOptimalSlopePair
//     and core.NaiveOptimalSupportPair (the baselines of the paper's
//     Figures 10 and 11), rectangles from region.NaiveOptimalRect*,
//     and gain ranges and rectangles from exhaustive enumeration here.
//
// It never calls Locate, LocateBatch, a bucketing counter, a plan
// kernel, or a session method. The x-monotone and rectilinear-convex
// regions, which have no polynomial enumerator, come from the serial
// region DPs over the oracle's own grid; package region pins those DPs
// against exhaustive search on small grids.

// oracle holds one relation's tuples, read once, and the mining
// configuration with defaults filled in.
type oracle struct {
	t      *testing.T
	rel    relation.Relation
	cfg    Config
	schema relation.Schema
	nums   map[int][]float64
	bools  map[int][]bool
	n      int
}

func newOracle(t *testing.T, rel relation.Relation, cfg Config) *oracle {
	t.Helper()
	o := &oracle{t: t, rel: rel, cfg: cfg.withDefaults(), schema: rel.Schema(),
		nums: map[int][]float64{}, bools: map[int][]bool{}}
	cols := relation.ColumnSet{Numeric: o.schema.NumericIndices(), Bool: o.schema.BooleanIndices()}
	err := rel.Scan(cols, func(b *relation.Batch) error {
		for i, attr := range cols.Numeric {
			o.nums[attr] = append(o.nums[attr], b.Numeric[i][:b.Len]...)
		}
		for i, attr := range cols.Bool {
			o.bools[attr] = append(o.bools[attr], b.Bool[i][:b.Len]...)
		}
		o.n += b.Len
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// attr resolves a name to its schema position.
func (o *oracle) attr(name string) int {
	o.t.Helper()
	a := o.schema.Index(name)
	if a < 0 {
		o.t.Fatalf("oracle: no attribute %q", name)
	}
	return a
}

// conds resolves named conditions in the caller's order.
func (o *oracle) conds(cs []Condition) []bucketing.BoolCond {
	var out []bucketing.BoolCond
	for _, c := range cs {
		out = append(out, bucketing.BoolCond{Attr: o.attr(c.Attr), Want: c.Value})
	}
	return out
}

// holds reports whether row meets every condition of conds.
func (o *oracle) holds(conds []bucketing.BoolCond, row int) bool {
	for _, c := range conds {
		if o.bools[c.Attr][row] != c.Want {
			return false
		}
	}
	return true
}

// cuts returns attr's cut points for m buckets, finest buckets first
// when exact is set and the domain allows them.
func (o *oracle) cuts(attr, m int, exact bool) []float64 {
	o.t.Helper()
	if exact && o.cfg.ExactDomainLimit > 0 {
		if b, err := bucketing.DistinctValueBoundaries(o.rel, attr, o.cfg.ExactDomainLimit); err == nil {
			return b.Cuts()
		}
	}
	b, err := bucketing.SampledBoundaries(o.rel, attr, m, o.cfg.SampleFactor, plan.AttrRNG(o.cfg.Seed, attr))
	if err != nil {
		o.t.Fatal(err)
	}
	return b.Cuts()
}

// bucketOf returns x's bucket under cuts: the first bucket whose cut
// is >= x, else the last. x must not be NaN.
func bucketOf(cuts []float64, x float64) int {
	i := 0
	for i < len(cuts) && x > cuts[i] {
		i++
	}
	return i
}

// lower and raise move an extreme toward x, comparing exactly as the
// counting kernels do (a tie keeps the first value seen).
func lower(p *float64, x float64) {
	if x < *p {
		*p = x
	}
}

func raise(p *float64, x float64) {
	if x > *p {
		*p = x
	}
}

// bigSum is one bucket's target sum, held exactly in math/big with
// flags for NaN and the infinities.
type bigSum struct {
	acc           *big.Float
	nan, pos, neg bool
}

func (s *bigSum) add(x float64) {
	switch {
	case math.IsNaN(x):
		s.nan = true
	case math.IsInf(x, 1):
		s.pos = true
	case math.IsInf(x, -1):
		s.neg = true
	default:
		if s.acc == nil {
			s.acc = new(big.Float).SetPrec(4096) // holds any float64 sum exactly
		}
		s.acc.Add(s.acc, new(big.Float).SetFloat64(x))
	}
}

// round is the sum rounded once to the nearest float64 under IEEE 754's
// rules; an exact zero reads +0.
func (s *bigSum) round() float64 {
	switch {
	case s.nan || (s.pos && s.neg):
		return math.NaN()
	case s.pos:
		return math.Inf(1)
	case s.neg:
		return math.Inf(-1)
	case s.acc == nil || s.acc.Sign() == 0:
		return 0
	}
	f, _ := s.acc.Float64()
	return f
}

// buckets is one driver's non-empty buckets, in order: sizes, objective
// hits per objective conjunction, target sums, and observed extremes.
type buckets struct {
	n      int
	u      []int
	v      [][]float64
	hits   []int
	sum    []float64
	lo, hi []float64
}

// count buckets driver under cuts over the rows meeting filter,
// tallying one hit row per objective conjunction and, when target >=
// 0, the target's sums. Empty buckets are dropped.
func (o *oracle) count(driver int, cuts []float64, filter []bucketing.BoolCond,
	objectives [][]bucketing.BoolCond, target int) *buckets {
	m := len(cuts) + 1
	u := make([]int, m)
	v := make([][]float64, len(objectives))
	for k := range v {
		v[k] = make([]float64, m)
	}
	sum := make([]bigSum, m)
	lo, hi := make([]float64, m), make([]float64, m)
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for row := 0; row < o.n; row++ {
		x := o.nums[driver][row]
		if !o.holds(filter, row) || math.IsNaN(x) {
			continue
		}
		i := bucketOf(cuts, x)
		u[i]++
		lower(&lo[i], x)
		raise(&hi[i], x)
		for k, obj := range objectives {
			if o.holds(obj, row) {
				v[k][i]++
			}
		}
		if target >= 0 {
			sum[i].add(o.nums[target][row])
		}
	}
	b := &buckets{v: make([][]float64, len(objectives)), hits: make([]int, len(objectives))}
	for i := 0; i < m; i++ {
		if u[i] == 0 {
			continue
		}
		b.n += u[i]
		b.u = append(b.u, u[i])
		b.lo, b.hi = append(b.lo, lo[i]), append(b.hi, hi[i])
		b.sum = append(b.sum, sum[i].round())
		for k := range objectives {
			b.v[k] = append(b.v[k], v[k][i])
			b.hits[k] += int(v[k][i])
		}
	}
	return b
}

// fill copies a bucket range solution into r.
func (b *buckets) fill(r *Rule, p core.Pair) {
	r.Low, r.High = b.lo[p.S], b.hi[p.T]
	r.Count = p.Count
	r.Support = float64(p.Count) / float64(b.n)
	r.Confidence = p.Conf
}

// gainRange enumerates every range [s, t] and keeps the first of
// maximal gain Σ(v − θ·u) in (t, s) order, from the same gain prefix
// table core.MaxGainRange builds.
func gainRange(u []int, v []float64, theta float64) (s, t int, gain float64) {
	f := make([]float64, len(u)+1)
	for i := range u {
		f[i+1] = f[i] + (v[i] - theta*float64(u[i]))
	}
	found := false
	for hi := range u {
		for lo := 0; lo <= hi; lo++ {
			if g := f[hi+1] - f[lo]; !found || g > gain {
				s, t, gain, found = lo, hi, g, true
			}
		}
	}
	return s, t, gain
}

// rules extracts the requested kinds for objective k, in the order
// support, confidence, gain.
func (o *oracle) rules(base Rule, b *buckets, k int, kinds []RuleKind, minSupport, minConfidence float64) []Rule {
	o.t.Helper()
	var out []Rule
	v := b.v[k]
	base.Baseline = float64(b.hits[k]) / float64(b.n)
	base.Buckets = len(b.u)
	if wantKind(kinds, OptimizedSupport) {
		p, ok, err := core.NaiveOptimalSupportPair(b.u, v, minConfidence)
		if err != nil {
			o.t.Fatal(err)
		}
		if ok {
			r := base
			r.Kind = OptimizedSupport
			b.fill(&r, p)
			out = append(out, r)
		}
	}
	if wantKind(kinds, OptimizedConfidence) {
		p, ok, err := core.NaiveOptimalSlopePair(b.u, v, minSupport*float64(b.n))
		if err != nil {
			o.t.Fatal(err)
		}
		if ok {
			r := base
			r.Kind = OptimizedConfidence
			b.fill(&r, p)
			out = append(out, r)
		}
	}
	if wantKind(kinds, OptimizedGain) {
		if s, t, gain := gainRange(b.u, v, minConfidence); gain > 0 {
			r := base
			r.Kind = OptimizedGain
			r.Gain = gain
			sumV := 0.0
			for i := s; i <= t; i++ {
				r.Count += b.u[i]
				sumV += v[i]
			}
			r.Low, r.High = b.lo[s], b.hi[t]
			r.Support = float64(r.Count) / float64(b.n)
			r.Confidence = sumV / float64(r.Count)
			out = append(out, r)
		}
	}
	return out
}

// mineAll is MineAll: every (numeric, Boolean) combination, attributes
// in schema order, sorted stably by descending lift.
func (o *oracle) mineAll() []Rule {
	var objs []bucketing.BoolCond
	for _, a := range o.schema.BooleanIndices() {
		objs = append(objs, bucketing.BoolCond{Attr: a, Want: true})
		if o.cfg.MineNegations {
			objs = append(objs, bucketing.BoolCond{Attr: a, Want: false})
		}
	}
	kinds := []RuleKind{OptimizedSupport, OptimizedConfidence}
	if o.cfg.MineGain {
		kinds = append(kinds, OptimizedGain)
	}
	objectives := make([][]bucketing.BoolCond, len(objs))
	for k, c := range objs {
		objectives[k] = []bucketing.BoolCond{c}
	}
	var out []Rule
	for _, a := range o.schema.NumericIndices() {
		b := o.count(a, o.cuts(a, o.cfg.Buckets, true), nil, objectives, -1)
		if b.n == 0 {
			continue
		}
		for k, c := range objs {
			base := Rule{Numeric: o.schema[a].Name, Objective: o.schema[c.Attr].Name, ObjectiveValue: c.Want}
			out = append(out, o.rules(base, b, k, kinds, o.cfg.MinSupport, o.cfg.MinConfidence)...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Lift() > out[j].Lift() })
	return out
}

// byKind returns the first rule of kind, or nil.
func byKind(rules []Rule, kind RuleKind) *Rule {
	for i := range rules {
		if rules[i].Kind == kind {
			return &rules[i]
		}
	}
	return nil
}

// mine is Mine: one (numeric, objective) pair under conditions.
func (o *oracle) mine(numeric, objective string, value bool, conditions []Condition) (sup, conf *Rule) {
	a := o.attr(numeric)
	filter := o.conds(conditions)
	obj := bucketing.BoolCond{Attr: o.attr(objective), Want: value}
	b := o.count(a, o.cuts(a, o.cfg.Buckets, true), filter, [][]bucketing.BoolCond{{obj}}, -1)
	if b.n == 0 {
		return nil, nil
	}
	base := Rule{Numeric: numeric, Objective: objective, ObjectiveValue: value,
		Condition: condString(o.schema, filter)}
	rules := o.rules(base, b, 0, []RuleKind{OptimizedSupport, OptimizedConfidence},
		o.cfg.MinSupport, o.cfg.MinConfidence)
	return byKind(rules, OptimizedSupport), byKind(rules, OptimizedConfidence)
}

// conjunctive is MineConjunctive: u over C1, v over C1 ∧ C2.
func (o *oracle) conjunctive(numeric string, objectives, conditions []Condition) (sup, conf *Rule) {
	a := o.attr(numeric)
	c1, c2 := o.conds(conditions), o.conds(objectives)
	b := o.count(a, o.cuts(a, o.cfg.Buckets, true), c1, [][]bucketing.BoolCond{c2}, -1)
	if b.n == 0 {
		return nil, nil
	}
	base := Rule{Numeric: numeric, Objective: condString(o.schema, c2), ObjectiveValue: true,
		Condition: condString(o.schema, c1)}
	rules := o.rules(base, b, 0, []RuleKind{OptimizedSupport, OptimizedConfidence},
		o.cfg.MinSupport, o.cfg.MinConfidence)
	return byKind(rules, OptimizedSupport), byKind(rules, OptimizedConfidence)
}

// topK is MineTopK: the greedy disjoint-range loop of core.TopK*Pairs,
// solving each segment by enumeration.
func (o *oracle) topK(numeric, objective string, value bool, kind RuleKind, k int) []Rule {
	o.t.Helper()
	a := o.attr(numeric)
	obj := bucketing.BoolCond{Attr: o.attr(objective), Want: value}
	b := o.count(a, o.cuts(a, o.cfg.Buckets, false), nil, [][]bucketing.BoolCond{{obj}}, -1)
	u, v := b.u, b.v[0]
	type segment struct {
		lo, hi int
		p      core.Pair
	}
	var segs []segment
	solve := func(lo, hi int) {
		if lo > hi {
			return
		}
		var p core.Pair
		var ok bool
		var err error
		if kind == OptimizedConfidence {
			p, ok, err = core.NaiveOptimalSlopePair(u[lo:hi+1], v[lo:hi+1], o.cfg.MinSupport*float64(b.n))
		} else {
			p, ok, err = core.NaiveOptimalSupportPair(u[lo:hi+1], v[lo:hi+1], o.cfg.MinConfidence)
		}
		if err != nil {
			o.t.Fatal(err)
		}
		if ok {
			p.S, p.T = p.S+lo, p.T+lo
			segs = append(segs, segment{lo, hi, p})
		}
	}
	better := func(x, y core.Pair) bool {
		if kind == OptimizedSupport {
			return x.Count > y.Count
		}
		lx, ly := x.SumV*float64(y.Count), y.SumV*float64(x.Count)
		if lx != ly {
			return lx > ly
		}
		return x.Count > y.Count
	}
	solve(0, len(u)-1)
	rules := []Rule{}
	for len(rules) < k && len(segs) > 0 {
		best := 0
		for i := range segs {
			if better(segs[i].p, segs[best].p) {
				best = i
			}
		}
		c := segs[best]
		segs = append(segs[:best], segs[best+1:]...)
		r := Rule{Kind: kind, Numeric: numeric, Objective: objective, ObjectiveValue: value,
			Baseline: float64(b.hits[0]) / float64(b.n), Buckets: len(u)}
		b.fill(&r, c.p)
		rules = append(rules, r)
		solve(c.lo, c.p.S-1)
		solve(c.p.T+1, c.hi)
	}
	return rules
}

// average is MaxAverageRange (maxSupport false, floor = minimum
// support) or MaxSupportRange (maxSupport true, floor = minimum
// average) over the driver's per-bucket target sums.
func (o *oracle) average(driver, target string, floor float64, maxSupport bool) AvgRange {
	o.t.Helper()
	a := o.attr(driver)
	b := o.count(a, o.cuts(a, o.cfg.Buckets, false), nil, nil, o.attr(target))
	var p core.Pair
	var ok bool
	var err error
	if maxSupport {
		p, ok, err = core.NaiveOptimalSupportPair(b.u, b.sum, floor)
	} else {
		p, ok, err = core.NaiveOptimalSlopePair(b.u, b.sum, floor*float64(b.n))
	}
	if err != nil || !ok {
		o.t.Fatalf("oracle: no average range (%v)", err)
	}
	total := 0.0
	for _, s := range b.sum {
		total += s
	}
	return AvgRange{Driver: driver, Target: target,
		Low: b.lo[p.S], High: b.hi[p.T],
		Support: float64(p.Count) / float64(b.n), Count: p.Count,
		Average: p.Conf, OverallAverage: total / float64(b.n)}
}

// profile is BuildProfile.
func (o *oracle) profile(numeric, objective string, value bool, m int) *Profile {
	a := o.attr(numeric)
	obj := bucketing.BoolCond{Attr: o.attr(objective), Want: value}
	b := o.count(a, o.cuts(a, m, false), nil, [][]bucketing.BoolCond{{obj}}, -1)
	p := &Profile{Numeric: numeric, Objective: objective, ObjectiveValue: value, N: b.n,
		Overall: float64(b.hits[0]) / float64(b.n)}
	for i := range b.u {
		p.Buckets = append(p.Buckets, ProfileBucket{Lo: b.lo[i], Hi: b.hi[i],
			Support: b.u[i], Conf: b.v[0][i] / float64(b.u[i])})
	}
	return p
}

// grid is one attribute pair's cells and per-axis extremes over the
// rows where both values are non-NaN.
type grid struct {
	g                      *region.Grid
	cutsB                  []float64
	minA, maxA, minB, maxB []float64
	n, hits                int
}

func (o *oracle) grid(a, b int, obj bucketing.BoolCond, side int) *grid {
	o.t.Helper()
	cutsA, cutsB := o.cuts(a, side, false), o.cuts(b, side, false)
	g, err := region.NewGrid(len(cutsA)+1, len(cutsB)+1)
	if err != nil {
		o.t.Fatal(err)
	}
	gr := &grid{g: g, cutsB: cutsB,
		minA: make([]float64, g.Rows()), maxA: make([]float64, g.Rows()),
		minB: make([]float64, g.Cols()), maxB: make([]float64, g.Cols())}
	for i := range gr.minA {
		gr.minA[i], gr.maxA[i] = math.Inf(1), math.Inf(-1)
	}
	for i := range gr.minB {
		gr.minB[i], gr.maxB[i] = math.Inf(1), math.Inf(-1)
	}
	for row := 0; row < o.n; row++ {
		x, y := o.nums[a][row], o.nums[b][row]
		if math.IsNaN(x) || math.IsNaN(y) {
			continue
		}
		r, c := bucketOf(cutsA, x), bucketOf(cutsB, y)
		g.U[r][c]++
		gr.n++
		if o.bools[obj.Attr][row] == obj.Want {
			g.V[r][c]++
			gr.hits++
		}
		lower(&gr.minA[r], x)
		raise(&gr.maxA[r], x)
		lower(&gr.minB[c], y)
		raise(&gr.maxB[c], y)
	}
	return gr
}

// gainRect enumerates every rectangle and keeps the first of maximal
// gain in (r1, r2, c2, c1) order — the order the row-pair Kadane sweep
// breaks ties in — with its gain prefix arithmetic.
func gainRect(g *region.Grid, theta float64) region.Rect {
	rows, cols := g.Rows(), g.Cols()
	var best region.Rect
	found := false
	u, v, f := make([]int, cols), make([]float64, cols), make([]float64, cols+1)
	for r1 := 0; r1 < rows; r1++ {
		clear(u)
		clear(v)
		for r2 := r1; r2 < rows; r2++ {
			for c := 0; c < cols; c++ {
				u[c] += g.U[r2][c]
				v[c] += g.V[r2][c]
				f[c+1] = f[c] + v[c] - theta*float64(u[c])
			}
			for c2 := 0; c2 < cols; c2++ {
				for c1 := 0; c1 <= c2; c1++ {
					if gain := f[c2+1] - f[c1]; !found || gain > best.Gain {
						best = region.Rect{R1: r1, R2: r2, C1: c1, C2: c2, Gain: gain}
						found = true
					}
				}
			}
		}
	}
	for r := best.R1; r <= best.R2; r++ {
		for c := best.C1; c <= best.C2; c++ {
			best.Count += g.U[r][c]
			best.SumV += g.V[r][c]
		}
	}
	if best.Count > 0 {
		best.Conf = best.SumV / float64(best.Count)
	}
	return best
}

// rule2D is Mine2D for one kind over the pair (a, b); nil when no
// rectangle qualifies.
func (o *oracle) rule2D(a, b string, obj string, value bool, kind RuleKind, gr *grid) *Rule2D {
	o.t.Helper()
	var rect region.Rect
	ok := true
	var err error
	switch kind {
	case OptimizedConfidence:
		rect, ok, err = region.NaiveOptimalRectConfidence(gr.g, o.cfg.MinSupport*float64(gr.n))
	case OptimizedSupport:
		rect, ok, err = region.NaiveOptimalRectSupport(gr.g, o.cfg.MinConfidence)
	case OptimizedGain:
		rect = gainRect(gr.g, o.cfg.MinConfidence)
		ok = rect.Gain > 0
	}
	if err != nil {
		o.t.Fatal(err)
	}
	if !ok {
		return nil
	}
	r := &Rule2D{Kind: kind, NumericA: a, NumericB: b, Objective: obj, ObjectiveValue: value,
		Support: float64(rect.Count) / float64(gr.n), Count: rect.Count, Confidence: rect.Conf,
		Baseline: float64(gr.hits) / float64(gr.n), Gain: rect.Gain,
		GridRows: gr.g.Rows(), GridCols: gr.g.Cols(),
		LowA: math.Inf(1), HighA: math.Inf(-1), LowB: math.Inf(1), HighB: math.Inf(-1)}
	for i := rect.R1; i <= rect.R2; i++ {
		lower(&r.LowA, gr.minA[i])
		raise(&r.HighA, gr.maxA[i])
	}
	for i := rect.C1; i <= rect.C2; i++ {
		lower(&r.LowB, gr.minB[i])
		raise(&r.HighB, gr.maxB[i])
	}
	return r
}

// region2D is MineXMonotone / MineRectilinearConvex over the pair; nil
// when no region has positive gain.
func (o *oracle) region2D(a, b string, obj string, value bool, class RegionClass, gr *grid) *RegionRule {
	o.t.Helper()
	var xm region.XMonotoneRegion
	var ok bool
	var err error
	if class == XMonotoneClass {
		xm, ok, err = region.MaxGainXMonotone(gr.g, o.cfg.MinConfidence)
	} else {
		xm, ok, err = region.MaxGainRectilinearConvex(gr.g, o.cfg.MinConfidence)
	}
	if err != nil {
		o.t.Fatal(err)
	}
	if !ok || xm.Gain <= 0 {
		return nil
	}
	r := &RegionRule{Class: class, NumericA: a, NumericB: b, Objective: obj, ObjectiveValue: value,
		Support: float64(xm.Count) / float64(gr.n), Count: xm.Count, Confidence: xm.Conf,
		Baseline: float64(gr.hits) / float64(gr.n), Gain: xm.Gain}
	for _, ci := range xm.Columns {
		band := RegionBand{BLo: math.Inf(-1), BHi: math.Inf(1), ALo: math.Inf(1), AHi: math.Inf(-1)}
		if ci.Col > 0 {
			band.BLo = gr.cutsB[ci.Col-1]
		}
		if ci.Col < len(gr.cutsB) {
			band.BHi = gr.cutsB[ci.Col]
		}
		for i := ci.Lo; i <= ci.Hi; i++ {
			lower(&band.ALo, gr.minA[i])
			raise(&band.AHi, gr.maxA[i])
		}
		r.Bands = append(r.Bands, band)
	}
	return r
}

// mine2D is Mine2D for one pair and kind.
func (o *oracle) mine2D(a, b, obj string, value bool, kind RuleKind, side int) *Rule2D {
	gr := o.grid(o.attr(a), o.attr(b), bucketing.BoolCond{Attr: o.attr(obj), Want: value}, side)
	return o.rule2D(a, b, obj, value, kind, gr)
}

// region is MineXMonotone / MineRectilinearConvex for one pair.
func (o *oracle) region(a, b, obj string, value bool, class RegionClass, side int) *RegionRule {
	gr := o.grid(o.attr(a), o.attr(b), bucketing.BoolCond{Attr: o.attr(obj), Want: value}, side)
	return o.region2D(a, b, obj, value, class, gr)
}

// mineAll2D is MineAll2D: every pair of opt.Numerics in (i, j) order,
// kinds then classes per pair, rectangles sorted stably by lift and
// regions by gain.
func (o *oracle) mineAll2D(opt Options2D) *Result2D {
	res := &Result2D{Tuples: o.n, Config: o.cfg}
	obj := bucketing.BoolCond{Attr: o.attr(opt.Objective), Want: opt.ObjectiveValue}
	for i := range opt.Numerics {
		for j := i + 1; j < len(opt.Numerics); j++ {
			a, b := opt.Numerics[i], opt.Numerics[j]
			gr := o.grid(o.attr(a), o.attr(b), obj, opt.GridSide)
			if gr.n == 0 {
				continue
			}
			res.Pairs++
			for _, kind := range opt.Kinds {
				if r := o.rule2D(a, b, opt.Objective, opt.ObjectiveValue, kind, gr); r != nil {
					res.Rules = append(res.Rules, *r)
				}
			}
			for _, class := range opt.Regions {
				if r := o.region2D(a, b, opt.Objective, opt.ObjectiveValue, class, gr); r != nil {
					res.Regions = append(res.Regions, *r)
				}
			}
		}
	}
	sort.SliceStable(res.Rules, func(i, j int) bool { return res.Rules[i].Lift() > res.Rules[j].Lift() })
	sort.SliceStable(res.Regions, func(i, j int) bool { return res.Regions[i].Gain > res.Regions[j].Gain })
	return res
}

// edgeRelation holds the oracle's edge cases in one relation of 39768
// rows — above the counting kernel's split floor, so every counting
// scan, target sums included, row-chunks across workers:
//   - X is integer-valued with 30% of rows at 7, so many rows sit
//     exactly on cut points and runs of equal cuts leave empty buckets;
//     every 13th X is NaN, and rare rows are ±Inf;
//   - Y is continuous with NaN holes and ±Inf, so pair grids see NaN
//     on either axis;
//   - Never is false on every row, so a filter on it excludes all.
func edgeRelation(t *testing.T) *relation.MemoryRelation {
	t.Helper()
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "Y", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
		{Name: "F", Kind: relation.Boolean},
		{Name: "Never", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 39768; i++ {
		x := float64(rng.Intn(60))
		if rng.Intn(10) < 3 {
			x = 7
		}
		switch {
		case i%13 == 0:
			x = math.NaN()
		case i%401 == 0:
			x = math.Inf(1)
		case i%409 == 0:
			x = math.Inf(-1)
		}
		y := rng.NormFloat64() * 20
		switch {
		case i%11 == 0:
			y = math.NaN()
		case i%397 == 0:
			y = math.Inf(-1)
		case i%499 == 0:
			y = math.Inf(1)
		}
		hot := x >= 20 && x <= 30 && y > 0
		target := rng.NormFloat64() * 3
		if hot {
			target += 4
		}
		rel.MustAppend([]float64{x, y, target},
			[]bool{hot && rng.Intn(5) > 0 || rng.Intn(4) == 0, rng.Intn(2) == 0, false})
	}
	return rel
}

// TestSessionOracleEdgeCases runs every session entry point over the
// edge-case relation at one and four workers and requires the oracle's
// answers.
func TestSessionOracleEdgeCases(t *testing.T) {
	rel := edgeRelation(t)
	cfg := Config{Buckets: 40, Seed: 3, MinSupport: 0.05, MinConfidence: 0.45,
		MineNegations: true, MineGain: true}
	o := newOracle(t, rel, cfg)
	never := []Condition{{Attr: "Never", Value: true}}
	onF := []Condition{{Attr: "F", Value: true}}
	c := []Condition{{Attr: "C", Value: true}}
	opt := Options2D{Numerics: []string{"X", "Y", "T"}, Objective: "C", ObjectiveValue: true,
		Kinds:   []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain},
		Regions: []RegionClass{XMonotoneClass, RectilinearConvexClass}, GridSide: 12}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			name := fmt.Sprintf("GOMAXPROCS=%d", procs)
			all, err := MineAll(rel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameRuleList(t, name+" MineAll", all.Rules, o.mineAll())

			for _, conds := range [][]Condition{onF, never} {
				sup, conf, err := Mine(rel, "X", "C", true, conds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				wantSup, wantConf := o.mine("X", "C", true, conds)
				requireDeepEqual(t, name+" Mine support", sup, wantSup)
				requireDeepEqual(t, name+" Mine confidence", conf, wantConf)
			}
			sup, conf, err := MineConjunctive(rel, "X", c, onF, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantSup, wantConf := o.conjunctive("X", c, onF)
			requireDeepEqual(t, name+" MineConjunctive support", sup, wantSup)
			requireDeepEqual(t, name+" MineConjunctive confidence", conf, wantConf)

			avg, err := MaxAverageRange(rel, "X", "T", 0.1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireDeepEqual(t, name+" MaxAverageRange", avg, o.average("X", "T", 0.1, false))

			got2D, err := MineAll2D(rel, opt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want2D := o.mineAll2D(opt)
			requireDeepEqual(t, name+" MineAll2D rules", got2D.Rules, want2D.Rules)
			requireDeepEqual(t, name+" MineAll2D regions", got2D.Regions, want2D.Regions)

			prof, err := BuildProfile(rel, "Y", "C", true, 20, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireDeepEqual(t, name+" BuildProfile", prof, o.profile("Y", "C", true, 20))
		}()
	}
}
