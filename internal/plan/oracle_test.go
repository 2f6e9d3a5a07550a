package plan

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/region"
	"optrule/internal/relation"
)

// The brute-force counting oracle. It recounts a batch's statistics
// from raw tuples and shares nothing with the counting kernels: it
// reads the batch's cut points through Boundaries.Cuts, places every
// value with a plain comparison loop (Algorithm 3.1, step 4: x belongs
// to the first bucket whose cut is >= x), and accumulates each
// statistic one row at a time in row order — target sums exactly, in
// math/big, rounded once. It never calls Locate, LocateBatch, any tally
// kernel, or the exact accumulator, so a defect in the slot tables,
// the effective-index passes, the chunk merge, or the target-sum
// rounding shows up as a difference from it.

// oracleBucket returns x's bucket under cuts. x must not be NaN.
func oracleBucket(cuts []float64, x float64) int {
	i := 0
	for i < len(cuts) && x > cuts[i] {
		i++
	}
	return i
}

// oracleSum is one bucket's target sum, held exactly in math/big with
// flags for NaN and the infinities.
type oracleSum struct {
	acc           *big.Float
	nan, pos, neg bool
}

func (s *oracleSum) add(x float64) {
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
func (s *oracleSum) round() float64 {
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

// oracleRows reads every column of rel into memory, keyed by schema
// position.
func oracleRows(t *testing.T, rel relation.Relation) (nums map[int][]float64, bools map[int][]bool, n int) {
	t.Helper()
	s := rel.Schema()
	cols := relation.ColumnSet{Numeric: s.NumericIndices(), Bool: s.BooleanIndices()}
	nums, bools = map[int][]float64{}, map[int][]bool{}
	err := rel.Scan(cols, func(b *relation.Batch) error {
		for i, attr := range cols.Numeric {
			nums[attr] = append(nums[attr], b.Numeric[i][:b.Len]...)
		}
		for i, attr := range cols.Bool {
			bools[attr] = append(bools[attr], b.Bool[i][:b.Len]...)
		}
		n += b.Len
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return nums, bools, n
}

// oracleSet recounts every group and pair of req over rel with the
// boundaries bounds holds, stamping req's generation.
func oracleSet(t *testing.T, rel relation.Relation, req *Requirements, bounds map[BoundKey]bucketing.Boundaries) *StatsSet {
	t.Helper()
	nums, bools, n := oracleRows(t, rel)
	cutsOf := func(k BoundKey) []float64 {
		b, ok := bounds[k]
		if !ok {
			t.Fatalf("oracle: boundaries %+v missing", k)
		}
		return b.Cuts()
	}
	set := newStatsSet()
	for k, b := range bounds {
		set.Bounds[k] = b
	}
	for _, k := range req.GroupOrder {
		need := req.Groups[k]
		cuts := cutsOf(BoundKey{Attr: need.Driver, M: k.M, Exact: k.Exact})
		m := len(cuts) + 1
		s := &Stats1D{M: m, Gen: req.Gen, U: make([]int, m),
			V: map[bucketing.BoolCond][]int{}, Sum: map[int][]float64{}}
		if need.TrackExtremes {
			s.MinVal, s.MaxVal = make([]float64, m), make([]float64, m)
			for i := range s.MinVal {
				s.MinVal[i], s.MaxVal[i] = math.Inf(1), math.Inf(-1)
			}
		}
		for _, bc := range need.Bools {
			s.V[bc] = make([]int, m)
		}
		sums := make([][]oracleSum, len(need.Targets))
		for k := range sums {
			sums[k] = make([]oracleSum, m)
		}
	rows:
		for row := 0; row < n; row++ {
			s.Total++
			for _, bc := range need.Filter {
				if bools[bc.Attr][row] != bc.Want {
					continue rows
				}
			}
			x := nums[need.Driver][row]
			if math.IsNaN(x) {
				s.NaNs++
				continue
			}
			i := oracleBucket(cuts, x)
			s.U[i]++
			s.N++
			if need.TrackExtremes {
				if x < s.MinVal[i] {
					s.MinVal[i] = x
				}
				if x > s.MaxVal[i] {
					s.MaxVal[i] = x
				}
			}
			for _, bc := range need.Bools {
				if bools[bc.Attr][row] == bc.Want {
					s.V[bc][i]++
				}
			}
			for j, tgt := range need.Targets {
				sums[j][i].add(nums[tgt][row])
			}
		}
		for j, tgt := range need.Targets {
			s.Sum[tgt] = make([]float64, m)
			for i := range sums[j] {
				s.Sum[tgt][i] = sums[j][i].round()
			}
		}
		set.Groups[k] = s
	}
	for _, k := range req.PairOrder {
		need := req.Pairs[k]
		cutsA := cutsOf(BoundKey{Attr: need.A, M: need.Side})
		cutsB := cutsOf(BoundKey{Attr: need.B, M: need.Side})
		g, err := region.NewGrid(len(cutsA)+1, len(cutsB)+1)
		if err != nil {
			t.Fatal(err)
		}
		s := &Stats2D{Grid: g, Gen: req.Gen,
			MinA: make([]float64, g.Rows()), MaxA: make([]float64, g.Rows()),
			MinB: make([]float64, g.Cols()), MaxB: make([]float64, g.Cols())}
		for i := range s.MinA {
			s.MinA[i], s.MaxA[i] = math.Inf(1), math.Inf(-1)
		}
		for i := range s.MinB {
			s.MinB[i], s.MaxB[i] = math.Inf(1), math.Inf(-1)
		}
		for row := 0; row < n; row++ {
			a, b := nums[need.A][row], nums[need.B][row]
			if math.IsNaN(a) || math.IsNaN(b) {
				continue
			}
			r, c := oracleBucket(cutsA, a), oracleBucket(cutsB, b)
			g.U[r][c]++
			s.N++
			if bools[need.Obj.Attr][row] == need.Obj.Want {
				g.V[r][c]++
				s.Hits++
			}
			if a < s.MinA[r] {
				s.MinA[r] = a
			}
			if a > s.MaxA[r] {
				s.MaxA[r] = a
			}
			if b < s.MinB[c] {
				s.MinB[c] = b
			}
			if b > s.MaxB[c] {
				s.MaxB[c] = b
			}
		}
		if g.Total() != s.N { // also memoizes the total, as publishing does
			t.Fatalf("oracle: grid total %d, counted %d", g.Total(), s.N)
		}
		set.Pairs[k] = s
	}
	return set
}

// requireOracle fails unless got is reflect.DeepEqual to the oracle's
// recount of req over rel with got's own boundaries — every count,
// extreme, and rounded target sum bit for bit.
func requireOracle(t *testing.T, rel relation.Relation, req *Requirements, got *StatsSet) {
	t.Helper()
	want := oracleSet(t, rel, req, got.Bounds)
	if len(want.Groups)+len(want.Pairs) == 0 {
		t.Fatal("oracle: empty schedule; the check is vacuous")
	}
	if !reflect.DeepEqual(want, got) {
		compareStatsSets(t, want, got)
		t.Fatal("statistics differ from the brute-force oracle")
	}
}

// edgeRelation holds the oracle's edge cases in one relation of
// splitRowFloor+7000 rows, large enough that the default segmentation
// row-chunks every scan:
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
	for i := 0; i < splitRowFloor+7000; i++ {
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
		rel.MustAppend([]float64{x, y, rng.NormFloat64()*3 + 1},
			[]bool{rng.Intn(3) == 0, rng.Intn(2) == 0, false})
	}
	return rel
}

// TestKernelOracleEdgeCases runs the edge-case relation through the
// counting scan at one and several workers, as an integer-exact
// schedule and as a schedule with target sums — both row-chunked into
// one chunk per core — and requires the oracle's statistics.
func TestKernelOracleEdgeCases(t *testing.T) {
	rel := edgeRelation(t)
	never := []Condition{{Attr: "Never", Value: true}}
	exact := []Query{
		{Op: OpRules, Negations: true},
		{Op: OpConjunctive, Numeric: "X",
			Objectives: []Condition{{Attr: "C", Value: true}},
			Conditions: []Condition{{Attr: "F", Value: true}}},
		{Op: OpRules, Numeric: "X", Objective: "C", ObjectiveValue: true, Conditions: never},
		{Op: OpRules2D, Numeric: "X", NumericB: "Y", Objective: "C", ObjectiveValue: true},
	}
	targets := append([]Query{
		{Op: OpAverage, Numeric: "X", Target: "T"},
		{Op: OpAverage, Numeric: "Y", Target: "T"},
	}, exact...)
	d := Defaults{Buckets: 40, GridSide: 24, SampleFactor: 40, Seed: 3}
	for _, tc := range []struct {
		name    string
		queries []Query
	}{{"integer-exact", exact}, {"target-sums", targets}} {
		for _, procs := range []int{1, 4} {
			withProcs(procs, func() {
				req := NewRequirements()
				for _, q := range tc.queries {
					r, err := Resolve(rel, d, q)
					if err != nil {
						t.Fatalf("resolve %+v: %v", q, err)
					}
					req.Add(r)
				}
				if pes := scanParallelism(rel, d, rel.NumTuples()); pes != procs {
					t.Fatalf("%s at GOMAXPROCS=%d: %d segments, want %d", tc.name, procs, pes, procs)
				}
				set, err := Run(rel, d, NewCache(0), req)
				if err != nil {
					t.Fatal(err)
				}
				checkEdgeCoverage(t, set)
				requireOracle(t, rel, req, set)
			})
		}
	}
}

// checkEdgeCoverage fails if the edge cases did not materialize: the X
// boundaries must carry a slot table's worth of cuts with repeats, and
// some group must be wholly filtered out while others see NaNs.
func checkEdgeCoverage(t *testing.T, set *StatsSet) {
	t.Helper()
	b := set.Bounds[BoundKey{Attr: 0, M: 40}]
	cuts := b.Cuts()
	repeats := 0
	for i := 1; i < len(cuts); i++ {
		if cuts[i] == cuts[i-1] {
			repeats++
		}
	}
	if len(cuts) < 16 || repeats == 0 {
		t.Fatalf("X cuts %v: want at least 16 cuts with repeats", cuts)
	}
	var empty, nans bool
	for k, g := range set.Groups {
		empty = empty || (k.Filter != "" && g.N == 0 && g.Total > 0)
		nans = nans || g.NaNs > 0
	}
	if !empty || !nans {
		t.Fatalf("edge cases missing: all-excluded group %v, NaN drivers %v", empty, nans)
	}
}
