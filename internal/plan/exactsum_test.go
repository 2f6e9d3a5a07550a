package plan

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/relation"
)

// Target sums are exact bucket sums rounded once: they do not depend on
// row order, chunk plan, worker count, or storage backend. The tests
// below pin that against the math/big oracle (oracle_test.go).

// TestKernelExactTargetSumCancellation pins exactness itself: targets
// 1e16, 1, -1e16 in one bucket sum to 1, where adding in row order
// gives 0.
func TestKernelExactTargetSumCancellation(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
	})
	rowOrder := 0.0
	for _, tv := range []float64{1e16, 1, -1e16} {
		rel.MustAppend([]float64{5, tv}, nil)
		rowOrder += tv
	}
	d := Defaults{Buckets: 1, GridSide: 16, SampleFactor: 40, Seed: 1}
	r, err := Resolve(rel, d, Query{Op: OpAverage, Numeric: "X", Target: "T"})
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequirements()
	req.Add(r)
	set, err := Run(rel, d, NewCache(0), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range set.Groups {
		if got := g.Sum[1]; !reflect.DeepEqual(got, []float64{1}) {
			t.Fatalf("bucket sums %v, want [1] (row order gives %v)", got, rowOrder)
		}
	}
	requireOracle(t, rel, req, set)
}

// wildTarget draws a target value from the shapes that make row-order
// float sums order-dependent or special: tenths, magnitudes from
// 1e-300 to 1e300 of either sign, -0, subnormals, and rare NaN and
// infinities.
func wildTarget(rng *rand.Rand, i int) float64 {
	switch {
	case i%9973 == 0:
		return math.NaN()
	case i%14983 == 0:
		return math.Inf(1)
	case i%19997 == 0:
		return math.Inf(-1)
	}
	switch rng.Intn(6) {
	case 0:
		return float64(rng.Intn(2001)-1000) / 10
	case 1:
		return math.Copysign(math.Pow(10, float64(rng.Intn(601)-300)), float64(rng.Intn(2)*2-1))
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return math.Float64frombits(uint64(rng.Int63n(1<<52))) * float64(rng.Intn(2)*2-1)
	case 4:
		return rng.NormFloat64() * 1e8
	}
	return float64(rng.Intn(100))
}

// exactSumBackends writes one tuple stream — a NaN-holed driver X,
// tenths in T, wild values in W — to memory, v1, v2, v3, and a sharded
// v3 relation, above the split floor so the default row-chunks.
func exactSumBackends(t *testing.T) map[string]relation.Relation {
	t.Helper()
	schema := relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
		{Name: "W", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	}
	n := splitRowFloor + 5000
	dir := t.TempDir()
	mem := relation.MustNewMemoryRelation(schema)
	var writers []*relation.DiskWriter
	for _, mk := range []func() (*relation.DiskWriter, error){
		func() (*relation.DiskWriter, error) {
			return relation.NewDiskWriter(filepath.Join(dir, "v1.opr"), schema)
		},
		func() (*relation.DiskWriter, error) {
			return relation.NewDiskWriterV2(filepath.Join(dir, "v2.opr"), schema, 4096)
		},
		func() (*relation.DiskWriter, error) {
			return relation.NewDiskWriterV3(filepath.Join(dir, "v3.opr"), schema, 4096)
		},
	} {
		dw, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		writers = append(writers, dw)
	}
	sw, err := relation.NewShardedWriter(filepath.Join(dir, "rel.oprs"), schema, relation.ShardedWriterOptions{
		Shards: 3, TotalRows: n, Format: relation.DiskFormatV3, GroupRows: 2048})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < n; i++ {
		x := rng.NormFloat64() * 100
		if i%89 == 0 {
			x = math.NaN()
		}
		nums := []float64{x, float64(rng.Intn(20001)-10000) / 10, wildTarget(rng, i)}
		bools := []bool{rng.Intn(3) == 0}
		mem.MustAppend(nums, bools)
		for _, dw := range writers {
			if err := dw.Append(nums, bools); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Append(nums, bools); err != nil {
			t.Fatal(err)
		}
	}
	rels := map[string]relation.Relation{"memory": mem}
	for i, name := range []string{"v1", "v2", "v3"} {
		if err := writers[i].Close(); err != nil {
			t.Fatal(err)
		}
		dr, err := relation.OpenDisk(filepath.Join(dir, name+".opr"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dr.Close() })
		rels[name] = dr
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := relation.OpenSharded(filepath.Join(dir, "rel.oprs"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	rels["sharded"] = sr
	return rels
}

// requireSameBits is reflect.DeepEqual on two StatsSets with every
// target sum compared by its bits, so NaN sums match NaN sums.
func requireSameBits(t *testing.T, label string, want, got *StatsSet) {
	t.Helper()
	strip := func(s *StatsSet) (*StatsSet, map[GroupKey]map[int][]uint64) {
		out := &StatsSet{Bounds: s.Bounds, Groups: map[GroupKey]*Stats1D{}, Pairs: s.Pairs}
		sums := map[GroupKey]map[int][]uint64{}
		for k, g := range s.Groups {
			c := *g
			c.Sum = nil
			out.Groups[k] = &c
			sums[k] = map[int][]uint64{}
			for tgt, row := range g.Sum {
				bits := make([]uint64, len(row))
				for i, x := range row {
					bits[i] = math.Float64bits(x)
				}
				sums[k][tgt] = bits
			}
		}
		return out, sums
	}
	w, wSums := strip(want)
	g, gSums := strip(got)
	if !reflect.DeepEqual(wSums, gSums) {
		t.Fatalf("%s: target sums differ:\nwant %v\ngot  %v", label, want.Groups, got.Groups)
	}
	if !reflect.DeepEqual(w, g) {
		compareStatsSets(t, w, g)
		t.Fatalf("%s: statistics differ", label)
	}
}

// TestKernelExactSumsAcrossBackends pins target sums over tenths and
// wild magnitudes (with -0, subnormals, NaN, and infinities) bit for
// bit: every backend, at PEs 1/2/3/8 and at the default segmentation
// under GOMAXPROCS 1/2/4, publishes the math/big oracle's statistics.
func TestKernelExactSumsAcrossBackends(t *testing.T) {
	queries := []Query{
		{Op: OpAverage, Numeric: "X", Target: "T"},
		{Op: OpAverage, Numeric: "X", Target: "W"},
		{Op: OpRules, Numeric: "X", Objective: "C", ObjectiveValue: true},
	}
	d := Defaults{Buckets: 25, GridSide: 16, SampleFactor: 40, Seed: 4}
	for name, rel := range exactSumBackends(t) {
		var want *StatsSet
		check := func(pes, procs int) {
			t.Helper()
			got := chunkRun(t, rel, d, queries, pes, procs)
			if want == nil {
				req := NewRequirements()
				for _, q := range queries {
					r, err := Resolve(rel, d, q)
					if err != nil {
						t.Fatal(err)
					}
					req.Add(r)
				}
				want = oracleSet(t, rel, req, got.Bounds)
				checkWildSums(t, want)
			}
			requireSameBits(t, fmt.Sprintf("%s PEs=%d GOMAXPROCS=%d", name, pes, procs), want, got)
		}
		for _, pes := range []int{1, 2, 3, 8} {
			check(pes, 2)
		}
		for _, procs := range []int{1, 2, 4} {
			check(0, procs)
		}
	}
}

// checkWildSums fails unless the oracle's wild-target sums include a
// NaN bucket and a finite nonzero one; the check would be vacuous
// otherwise.
func checkWildSums(t *testing.T, set *StatsSet) {
	t.Helper()
	var nan, finite bool
	for _, g := range set.Groups {
		for _, x := range g.Sum[2] {
			nan = nan || math.IsNaN(x)
			finite = finite || (x != 0 && !math.IsInf(x, 0) && !math.IsNaN(x))
		}
	}
	if !nan || !finite {
		t.Fatalf("wild target sums lack a NaN (%v) or a finite nonzero (%v) bucket", nan, finite)
	}
}

// TestKernelExactSumsLimbsAtMaxBuckets pins the accumulator's memory:
// one chunk state tallying an integer-valued target (ages) at
// MaxBuckets buckets holds at most 5 limbs per bucket.
func TestKernelExactSumsLimbsAtMaxBuckets(t *testing.T) {
	cuts := make([]float64, MaxBuckets-1)
	for i := range cuts {
		cuts[i] = float64(i) + 0.5
	}
	b, err := bucketing.NewBoundaries(cuts)
	if err != nil {
		t.Fatal(err)
	}
	set := newStatsSet()
	bk := BoundKey{Attr: 0, M: MaxBuckets}
	set.Bounds[bk] = b
	need := &GroupNeed{Key: GroupKey{Driver: 0, M: MaxBuckets}, Driver: 0, Targets: []int{1}}
	groups := []*GroupNeed{need}
	_, numPos, boolPos := execLayout(groups, nil)
	st, err := newExecState(set, groups, nil, numPos, boolPos)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	n := relation.DefaultBatchSize
	batch := &relation.Batch{Len: n, Numeric: [][]float64{make([]float64, n), make([]float64, n)}}
	for rep := 0; rep < 64; rep++ {
		for r := 0; r < n; r++ {
			batch.Numeric[0][r] = float64(rng.Intn(MaxBuckets))
			batch.Numeric[1][r] = float64(18 + rng.Intn(73))
		}
		st.countBatch(batch)
	}
	st.publish(set)
	if w := st.groups[0].sum[0].Width(); w > 5 {
		t.Fatalf("integer target at %d buckets holds %d limbs per bucket, want at most 5", MaxBuckets, w)
	}
}
