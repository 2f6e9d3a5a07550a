package plan

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"optrule/internal/bucketing"
	"optrule/internal/relation"
)

// The row-chunked general kernel counts every schedule, the MineAll
// shape and target sums included. The tests below pin it on every storage
// layout a parallel counting scan must handle — sharded, v2 block
// groups, v3 zone-map pushdown, a clustered v3 file with maximal
// chunk-cost skew — with one bit-identity demand: the default
// segmentation at every worker count, and explicit PEs, publish a
// StatsSet reflect.DeepEqual to the one-segment scan, whose groups
// equal bucketing.MultiCount's counts over the same boundaries.

// chunkRun resolves queries over rel and runs them on a fresh cache
// with d.PEs = pes at GOMAXPROCS procs.
func chunkRun(t *testing.T, rel relation.Relation, d Defaults, queries []Query, pes, procs int) *StatsSet {
	t.Helper()
	var set *StatsSet
	withProcs(procs, func() {
		d.PEs = pes
		req := NewRequirements()
		for _, q := range queries {
			r, err := Resolve(rel, d, q)
			if err != nil {
				t.Fatalf("resolve %+v: %v", q, err)
			}
			req.Add(r)
		}
		var err error
		if set, err = Run(rel, d, NewCache(0), req); err != nil {
			t.Fatalf("PEs=%d GOMAXPROCS=%d: %v", pes, procs, err)
		}
	})
	return set
}

// checkChunkedKernel runs queries over rel as one segment (PEs=1), by
// default at GOMAXPROCS 1/2/3/8, and at each explicit PEs in pesList,
// requires every run's StatsSet to be reflect.DeepEqual to the
// one-segment one, and checks that set against bucketing.MultiCount.
// It returns the one-segment set.
func checkChunkedKernel(t *testing.T, rel relation.Relation, d Defaults, queries []Query, pesList []int) *StatsSet {
	t.Helper()
	want := chunkRun(t, rel, d, queries, 1, 1)
	if len(want.Groups) == 0 {
		t.Fatal("schedule produced no groups; the check is vacuous")
	}
	check := func(pes, procs int) {
		t.Helper()
		if got := chunkRun(t, rel, d, queries, pes, procs); !reflect.DeepEqual(want, got) {
			compareStatsSets(t, want, got)
			t.Fatalf("PEs=%d GOMAXPROCS=%d: StatsSet differs from the one-segment scan", pes, procs)
		}
	}
	for _, procs := range []int{1, 2, 3, 8} {
		check(0, procs)
	}
	for _, pes := range pesList {
		check(pes, 2)
	}
	sameAsMultiCount(t, rel, want)
	return want
}

// sameAsMultiCount requires every group in set to equal what
// bucketing.MultiCount counts over the same boundaries and options,
// rounded target sums included.
func sameAsMultiCount(t *testing.T, rel relation.Relation, set *StatsSet) {
	t.Helper()
	for k, s := range set.Groups {
		need, err := needFromCachedGroup(k, s)
		if err != nil {
			t.Fatal(err)
		}
		var targets []int
		for tgt := range s.Sum {
			targets = append(targets, tgt)
		}
		sort.Ints(targets)
		opts := bucketing.Options{Bools: need.Bools, Targets: targets,
			Filter: need.Filter, TrackExtremes: need.TrackExtremes}
		b := set.Bounds[BoundKey{Attr: k.Driver, M: k.M, Exact: k.Exact}]
		cs, err := bucketing.MultiCount(rel, []int{k.Driver}, []bucketing.Boundaries{b}, opts)
		if err != nil {
			t.Fatal(err)
		}
		c := cs[0]
		if s.M != c.M || s.N != c.N || s.Total != c.Total || s.NaNs != c.NaNs {
			t.Errorf("group %+v: {M:%d N:%d Total:%d NaNs:%d}, MultiCount {M:%d N:%d Total:%d NaNs:%d}",
				k, s.M, s.N, s.Total, s.NaNs, c.M, c.N, c.Total, c.NaNs)
		}
		if !reflect.DeepEqual(s.U, c.U) || !reflect.DeepEqual(s.MinVal, c.MinVal) || !reflect.DeepEqual(s.MaxVal, c.MaxVal) {
			t.Errorf("group %+v: bucket counts or extremes differ from MultiCount", k)
		}
		for i, bc := range need.Bools {
			if !reflect.DeepEqual(s.V[bc], c.V[i]) {
				t.Errorf("group %+v: objective %+v counts differ from MultiCount", k, bc)
			}
		}
		for i, tgt := range targets {
			if !reflect.DeepEqual(s.Sum[tgt], c.Sum[i]) {
				t.Errorf("group %+v: target %d sums differ from MultiCount (must be bit-identical)", k, tgt)
			}
		}
	}
}

// abcSchema is the sharded and v2 data sets' schema, and abcRow their
// row generator.
var abcSchema = relation.Schema{
	{Name: "A", Kind: relation.Numeric},
	{Name: "B", Kind: relation.Numeric},
	{Name: "C", Kind: relation.Boolean},
}

func abcRow(rng *rand.Rand) ([]float64, []bool) {
	return []float64{rng.NormFloat64(), rng.Float64() * 100}, []bool{rng.Intn(3) == 0}
}

// abcQueries is the MineAll shape over A and B with one objective.
var abcQueries = []Query{{Op: OpRules, Objective: "C", ObjectiveValue: true}}

// TestChunkedKernelSharded pins the chunked scan over a sharded
// relation (chunks snap to shard and block-group boundaries).
func TestChunkedKernelSharded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "par.oprs")
	sw, err := relation.NewShardedWriter(path, abcSchema, relation.ShardedWriterOptions{Shards: 4, TotalRows: 12345, GroupRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12345; i++ {
		if err := sw.Append(abcRow(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	rel, err := relation.OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()
	d := Defaults{Buckets: 50, GridSide: 16, SampleFactor: 40, Seed: 5}
	checkChunkedKernel(t, rel, d, abcQueries, []int{2, 5, 16})
}

// TestChunkedKernelV2Aligned pins the chunked scan over a v2 file with
// a partial last block group.
func TestChunkedKernelV2Aligned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "par_v2.opr")
	dw, err := relation.NewDiskWriterV2(path, abcSchema, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12345; i++ { // 12 full groups + a 345-row tail
		if err := dw.Append(abcRow(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	rel, err := relation.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	d := Defaults{Buckets: 50, GridSide: 16, SampleFactor: 40, Seed: 5}
	checkChunkedKernel(t, rel, d, abcQueries, []int{2, 3, 7, 16})
}

// TestChunkedKernelMatchesMultiCount pins the chunked scan over an
// in-memory relation with NaN drivers, negated objectives, and (in a
// second schedule) non-integer target sums, which row-chunk like any
// tally and stay bit-identical to MultiCount's one-pass sums.
func TestChunkedKernelMatchesMultiCount(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "A", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
		{Name: "T", Kind: relation.Numeric},
		{Name: "D", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		a := rng.Float64() * 100
		b := rng.NormFloat64() * 1000
		if i%7 == 0 {
			b = math.NaN()
		}
		rel.MustAppend([]float64{a, b, rng.Float64() * 10},
			[]bool{rng.Intn(3) == 0, rng.Intn(2) == 0})
	}
	d := Defaults{Buckets: 5, GridSide: 16, SampleFactor: 40, Seed: 5}
	set := checkChunkedKernel(t, rel, d, []Query{{Op: OpRules, Negations: true}}, []int{2, 7, 16})
	nans := false
	for _, g := range set.Groups {
		nans = nans || g.NaNs > 0
	}
	if !nans {
		t.Fatal("no group counted a NaN driver; the fixture lost its NaN holes")
	}
	targets := []Query{
		{Op: OpAverage, Numeric: "A", Target: "T"},
		{Op: OpAverage, Numeric: "B", Target: "T"},
	}
	checkChunkedKernel(t, rel, d, targets, []int{2, 7, 16})
}

// TestChunkedKernelFilterPushdownOverV3 pins per-chunk pruned scans: a
// filtered schedule over a v3 file whose filter column is true only in
// rows [4000, 8000) must account every skipped row in the merged
// totals and equal the same schedule over an in-memory copy.
func TestChunkedKernelFilterPushdownOverV3(t *testing.T) {
	const n, gr = 20000, 1000
	schema := relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "T", Kind: relation.Numeric},
		{Name: "F", Kind: relation.Boolean},
		{Name: "C", Kind: relation.Boolean},
	}
	path := filepath.Join(t.TempDir(), "pushdown.opr")
	dw, err := relation.NewDiskWriterV3(path, schema, gr)
	if err != nil {
		t.Fatal(err)
	}
	mem := relation.MustNewMemoryRelation(schema)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		nums := []float64{rng.NormFloat64() * 100, rng.Float64() * 10}
		bools := []bool{i >= 4000 && i < 8000, rng.Intn(2) == 0}
		if err := dw.Append(nums, bools); err != nil {
			t.Fatal(err)
		}
		mem.MustAppend(nums, bools)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	dr, err := relation.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	d := Defaults{Buckets: 50, GridSide: 16, SampleFactor: 40, Seed: 2}
	queries := []Query{{Op: OpRules, Numeric: "X", Objective: "C", ObjectiveValue: true,
		Conditions: []Condition{{Attr: "F", Value: true}}}}
	got := checkChunkedKernel(t, dr, d, queries, []int{4})
	want := chunkRun(t, mem, d, queries, 1, 1)
	if !reflect.DeepEqual(want, got) {
		compareStatsSets(t, want, got)
		t.Fatal("v3 pushdown statistics differ from the in-memory scan")
	}
	for k, g := range got.Groups {
		if g.Total != n {
			t.Errorf("group %+v: Total = %d, want %d (skipped rows must still be accounted)", k, g.Total, n)
		}
	}
}

// TestChunkedKernelDynamicPruned pins the work-stealing chunk runner on
// the layout it was built for: a v3 file clustered by the filter
// column, where about half the block groups are zone-refuted and cost
// ~0 — maximal chunk-cost skew. Every statistic must be bit-identical
// whichever worker claims which chunk. Runs under -race in CI.
func TestChunkedKernelDynamicPruned(t *testing.T) {
	schema := relation.Schema{
		{Name: "V", Kind: relation.Numeric},
		{Name: "Member", Kind: relation.Boolean},
		{Name: "Hit", Kind: relation.Boolean},
	}
	path := filepath.Join(t.TempDir(), "steal.opr")
	dw, err := relation.NewDiskWriterV3(path, schema, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster by the filter column: all non-member rows land in leading
	// groups whose zone maps (true count 0) refute Member=true outright.
	if err := dw.ClusterBy(1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 8000; i++ {
		v := rng.NormFloat64() * 100
		if i%251 == 0 {
			v = math.NaN()
		}
		if err := dw.Append([]float64{v}, []bool{rng.Intn(2) == 0, rng.Intn(3) == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	dr, err := relation.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Close()
	d := Defaults{Buckets: 6, GridSide: 16, SampleFactor: 40, Seed: 3}
	queries := []Query{{Op: OpRules, Numeric: "V", Objective: "Hit", ObjectiveValue: true,
		Conditions: []Condition{{Attr: "Member", Value: true}}}}
	set := checkChunkedKernel(t, dr, d, queries, []int{2, 4, 8})
	for k, g := range set.Groups {
		if g.N == 0 || g.N == g.Total {
			t.Fatalf("group %+v: degenerate fixture, N=%d of Total=%d", k, g.N, g.Total)
		}
	}
}

// TestChunkedKernelClusteredShardedPruned pins the default
// segmentation on the shape it now serves: a homogeneous filtered
// schedule (the MineAll shape under one condition) over a sharded v3
// relation written in filter-column order, above the split floor so
// the default row-chunks at every GOMAXPROCS above 1. The chunked scan
// must prune — read strictly fewer bytes than the unfiltered schedule
// — and stay reflect.DeepEqual across worker counts.
func TestChunkedKernelClusteredShardedPruned(t *testing.T) {
	n := splitRowFloor + 7000
	schema := relation.Schema{
		{Name: "V", Kind: relation.Numeric},
		{Name: "W", Kind: relation.Numeric},
		{Name: "Member", Kind: relation.Boolean},
		{Name: "Hit", Kind: relation.Boolean},
	}
	type row struct {
		nums  []float64
		bools []bool
	}
	rng := rand.New(rand.NewSource(41))
	rows := make([]row, n)
	for i := range rows {
		rows[i] = row{[]float64{rng.NormFloat64() * 100, rng.Float64() * 50},
			[]bool{rng.Intn(10) < 3, rng.Intn(3) == 0}}
	}
	// Filter-column order (false rows first), the layout ClusterBy
	// writes, so the Member=false prefix is zone-refuted group by group.
	sort.SliceStable(rows, func(i, j int) bool { return !rows[i].bools[0] && rows[j].bools[0] })
	path := filepath.Join(t.TempDir(), "clustered.oprs")
	sw, err := relation.NewShardedWriter(path, schema, relation.ShardedWriterOptions{
		Shards: 3, TotalRows: n, Format: relation.DiskFormatV3, GroupRows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := sw.Append(r.nums, r.bools); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	rel, err := relation.OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()
	d := Defaults{Buckets: 40, GridSide: 16, SampleFactor: 40, Seed: 9}
	filtered := []Query{{Op: OpRules, Conditions: []Condition{{Attr: "Member", Value: true}}}}
	checkChunkedKernel(t, rel, d, filtered, []int{3})

	// The default really row-chunks this scan.
	req := NewRequirements()
	r, err := Resolve(rel, d, filtered[0])
	if err != nil {
		t.Fatal(err)
	}
	req.Add(r)
	for _, procs := range []int{2, 3, 8} {
		withProcs(procs, func() {
			if pes := scanParallelism(rel, d, n); pes != procs {
				t.Errorf("GOMAXPROCS=%d: default segmentation %d, want %d", procs, pes, procs)
			}
		})
	}

	bytesOf := func(queries []Query) int64 {
		before := rel.BytesRead()
		chunkRun(t, rel, d, queries, 0, 2)
		return rel.BytesRead() - before
	}
	pruned := bytesOf(filtered)
	full := bytesOf([]Query{{Op: OpRules}})
	if pruned >= full {
		t.Errorf("filtered schedule read %d bytes, unfiltered %d; zone maps pruned nothing", pruned, full)
	}
}
