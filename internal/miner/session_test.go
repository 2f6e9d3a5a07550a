package miner

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/plan"
	"optrule/internal/relation"
)

// sessionBackends materializes the same deterministic tuple stream on
// every storage backend, so the differential matrix compares
// bit-identical data: in-memory, v1 (row-major) disk, v2 (columnar)
// disk, and a 3-shard sharded relation.
func sessionBackends(t *testing.T, src datagen.RowSource, n int, seed int64) []struct {
	name string
	rel  relation.Relation
} {
	t.Helper()
	mem, err := datagen.Materialize(src, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	openDisk := func(version int) relation.Relation {
		path := t.TempDir() + "/rel.opr"
		if err := datagen.WriteDiskFormat(path, src, n, seed, version); err != nil {
			t.Fatal(err)
		}
		dr, err := relation.OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dr.Close() })
		return dr
	}
	manifest := t.TempDir() + "/rel.oprs"
	if err := datagen.WriteSharded(manifest, src, n, seed, 3, 0); err != nil {
		t.Fatal(err)
	}
	sr, err := relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	return []struct {
		name string
		rel  relation.Relation
	}{
		{"memory", mem},
		{"v1", openDisk(relation.DiskFormatV1)},
		{"v2", openDisk(relation.DiskFormatV2)},
		{"sharded", sr},
	}
}

// requireDeepEqual fails unless got and want are deeply equal —
// including every floating-point field: the session and the oracle
// draw bit-identical samples and accumulate in the same row order.
func requireDeepEqual(t *testing.T, name string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s differs:\ngot:  %+v\nwant: %+v", name, got, want)
	}
}

// TestSessionEntryPointsMatchOracle pins every wrapped one-shot entry
// point rule-for-rule identical to the brute-force oracle on bank and
// retail data across all four storage backends.
func TestSessionEntryPointsMatchOracle(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	retail, err := datagen.NewRetail(datagen.DefaultRetailConfig())
	if err != nil {
		t.Fatal(err)
	}
	type pick struct {
		numeric, objective, target string
		cond                       Condition
	}
	gens := []struct {
		name string
		gen  datagen.RowSource
		p    pick
	}{
		{"bank", bank, pick{numeric: "Balance", objective: "CardLoan", target: "Age",
			cond: Condition{Attr: "AutoWithdraw", Value: true}}},
		{"retail", retail, pick{numeric: "Amount", objective: "Pizza", target: "ItemCount",
			cond: Condition{Attr: "Coke", Value: true}}},
	}
	cfg := Config{Buckets: 150, Seed: 17, MinSupport: 0.05, MinConfidence: 0.55}
	for _, g := range gens {
		for _, b := range sessionBackends(t, g.gen, 6000, 23) {
			name := g.name + "/" + b.name
			rel := b.rel
			o := newOracle(t, rel, cfg)

			gotAll, err := MineAll(rel, cfg)
			if err != nil {
				t.Fatalf("%s MineAll: %v", name, err)
			}
			requireDeepEqual(t, name+" MineAll rules", gotAll.Rules, o.mineAll())

			gotSup, gotConf, err := Mine(rel, g.p.numeric, g.p.objective, true,
				[]Condition{g.p.cond}, cfg)
			if err != nil {
				t.Fatalf("%s Mine: %v", name, err)
			}
			wantSup, wantConf := o.mine(g.p.numeric, g.p.objective, true, []Condition{g.p.cond})
			requireDeepEqual(t, name+" Mine support", gotSup, wantSup)
			requireDeepEqual(t, name+" Mine confidence", gotConf, wantConf)

			for _, kind := range []RuleKind{OptimizedConfidence, OptimizedSupport} {
				got, err := MineTopK(rel, g.p.numeric, g.p.objective, true, kind, 3, cfg)
				if err != nil {
					t.Fatalf("%s MineTopK: %v", name, err)
				}
				requireDeepEqual(t, fmt.Sprintf("%s MineTopK %v", name, kind), got,
					o.topK(g.p.numeric, g.p.objective, true, kind, 3))
			}

			gotAvg, err := MaxAverageRange(rel, g.p.numeric, g.p.target, 0.10, cfg)
			if err != nil {
				t.Fatalf("%s MaxAverageRange: %v", name, err)
			}
			wantAvg := o.average(g.p.numeric, g.p.target, 0.10, false)
			requireDeepEqual(t, name+" MaxAverageRange", gotAvg, wantAvg)

			gotMsr, err := MaxSupportRange(rel, g.p.numeric, g.p.target, wantAvg.OverallAverage, cfg)
			if err != nil {
				t.Fatalf("%s MaxSupportRange: %v", name, err)
			}
			requireDeepEqual(t, name+" MaxSupportRange", gotMsr,
				o.average(g.p.numeric, g.p.target, wantAvg.OverallAverage, true))

			objectives := []Condition{{Attr: g.p.objective, Value: true}}
			gotCSup, gotCConf, err := MineConjunctive(rel, g.p.numeric, objectives, []Condition{g.p.cond}, cfg)
			if err != nil {
				t.Fatalf("%s MineConjunctive: %v", name, err)
			}
			wantCSup, wantCConf := o.conjunctive(g.p.numeric, objectives, []Condition{g.p.cond})
			requireDeepEqual(t, name+" MineConjunctive support", gotCSup, wantCSup)
			requireDeepEqual(t, name+" MineConjunctive confidence", gotCConf, wantCConf)
		}
	}
}

// TestSessionExactDomainsMatchOracle covers the finest-bucket
// (ExactDomainLimit) path through the session planner.
func TestSessionExactDomainsMatchOracle(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 5000, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buckets: 80, Seed: 4, ExactDomainLimit: 120, MineGain: true, MineNegations: true}
	o := newOracle(t, rel, cfg)
	got, err := MineAll(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqual(t, "exact-domain MineAll rules", got.Rules, o.mineAll())

	gotSup, gotConf, err := Mine(rel, "Age", "CardLoan", true, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSup, wantConf := o.mine("Age", "CardLoan", true, nil)
	requireDeepEqual(t, "exact-domain Mine support", gotSup, wantSup)
	requireDeepEqual(t, "exact-domain Mine confidence", gotConf, wantConf)
}

// mixedBatch is the heterogeneous 1-D + 2-D batch the scan-count and
// concurrency tests share: all-attribute rules, a conditioned targeted
// query, a 2-D pair with a region class, ranked ranges, an
// average-operator query, and a conjunctive query.
func mixedBatch() []Query {
	return []Query{
		{Op: OpRules},
		{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true,
			Conditions: []plan.Condition{{Attr: "AutoWithdraw", Value: true}}},
		{Op: OpRules2D, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan",
			ObjectiveValue: true, GridSide: 32, Regions: []RegionClass{XMonotoneClass}},
		{Op: OpTopK, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true, K: 3},
		{Op: OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.1},
		{Op: OpConjunctive, Numeric: "Age",
			Objectives: []plan.Condition{{Attr: "CardLoan", Value: true}},
			Conditions: []plan.Condition{{Attr: "Mortgage", Value: true}}},
	}
}

// checkAnswers fails on any per-query error.
func checkAnswers(t *testing.T, answers []Answer) {
	t.Helper()
	for i, a := range answers {
		if a.Err != nil {
			t.Fatalf("query %d: %v", i, a.Err)
		}
	}
}

// TestSessionBatchTwoScans pins the executor's cost contract: a mixed
// 1-D/2-D batch costs exactly TWO relation scans (one sampling, one
// counting), and a re-query batch with different thresholds, kinds,
// and region classes costs ZERO scans — every statistic it needs is
// cached.
func TestSessionBatchTwoScans(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := datagen.Materialize(bank, 4000, 31)
	if err != nil {
		t.Fatal(err)
	}
	counting := &relation.CountingRelation{R: mem}
	s, err := NewSession(counting, Config{Buckets: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	answers, err := s.ExecuteBatch(mixedBatch())
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, answers)
	if counting.Scans != 2 {
		t.Fatalf("mixed batch cost %d scans, want exactly 2", counting.Scans)
	}

	// Same statistics, different query plane: thresholds, kinds, K, and
	// region class all change; nothing may rescan.
	requery := []Query{
		{Op: OpRules, MinSupport: 0.2, MinConfidence: 0.7,
			Kinds: []RuleKind{OptimizedSupport, OptimizedConfidence, OptimizedGain}},
		{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true,
			Conditions:    []plan.Condition{{Attr: "AutoWithdraw", Value: true}},
			MinConfidence: 0.8},
		{Op: OpRules2D, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan",
			ObjectiveValue: true, GridSide: 32,
			Kinds:   []RuleKind{OptimizedGain},
			Regions: []RegionClass{RectilinearConvexClass}},
		{Op: OpTopK, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true, K: 5,
			Kinds: []RuleKind{OptimizedSupport}},
		{Op: OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.3},
		{Op: OpSupportRange, Numeric: "Balance", Target: "Age", MinAverage: 1},
	}
	answers, err = s.ExecuteBatch(requery)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, answers)
	if counting.Scans != 2 {
		t.Fatalf("cached re-query batch rescanned: %d scans total, want still 2", counting.Scans)
	}
	if st := s.CacheStats(); st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("cache did not serve the re-query: %+v", st)
	}

	// A genuinely new statistic (an unseen objective row on a cached
	// group) costs at most one more counting scan — the boundaries stay
	// cached, so no sampling scan runs.
	answers, err = s.ExecuteBatch([]Query{{
		Op: OpRules, Numeric: "Balance", Objective: "Mortgage", ObjectiveValue: false,
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, answers)
	if counting.Scans != 3 {
		t.Fatalf("new objective row cost %d extra scans, want exactly 1 (counting only)", counting.Scans-2)
	}
}

// TestSessionBatchMatchesOneShots pins that a batched execution
// answers every query identically to its standalone one-shot wrapper.
func TestSessionBatchMatchesOneShots(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 4000, 31)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buckets: 200, Seed: 5}
	s, err := NewSession(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := s.ExecuteBatch(mixedBatch())
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, answers)

	wantAll, err := MineAll(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqual(t, "batch MineAll", answers[0].Rules, wantAll.Rules)

	wantSup, wantConf, err := Mine(rel, "Balance", "CardLoan", true,
		[]Condition{{Attr: "AutoWithdraw", Value: true}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gotRules []Rule
	gotRules = append(gotRules, answers[1].Rules...)
	found := map[RuleKind]*Rule{}
	for i := range gotRules {
		found[gotRules[i].Kind] = &gotRules[i]
	}
	requireDeepEqual(t, "batch Mine support", found[OptimizedSupport], wantSup)
	requireDeepEqual(t, "batch Mine confidence", found[OptimizedConfidence], wantConf)

	wantRegion, err := MineXMonotone(rel, "Balance", "Age", "CardLoan", true, 32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers[2].Regions) != 1 || wantRegion == nil {
		t.Fatalf("region missing: batch=%d oneshot=%v", len(answers[2].Regions), wantRegion)
	}
	requireDeepEqual(t, "batch region", answers[2].Regions[0], *wantRegion)

	wantTopK, err := MineTopK(rel, "Balance", "CardLoan", true, OptimizedConfidence, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqual(t, "batch topk", answers[3].Rules, wantTopK)

	wantAvg, err := MaxAverageRange(rel, "Balance", "Age", 0.1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqual(t, "batch average", *answers[4].Range, wantAvg)
}

// TestSessionBadQueryDoesNotSinkBatch pins per-query error isolation.
func TestSessionBadQueryDoesNotSinkBatch(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(rel, Config{Buckets: 50})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := s.ExecuteBatch([]Query{
		{Op: OpRules, Numeric: "Nope"},
		{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true},
		{Op: OpTopK, Numeric: "Balance", Objective: "CardLoan", K: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Err == nil {
		t.Errorf("unknown attribute accepted")
	}
	if answers[1].Err != nil || len(answers[1].Rules) == 0 {
		t.Errorf("good query failed alongside bad one: %v", answers[1].Err)
	}
	if answers[2].Err == nil {
		t.Errorf("k=0 accepted")
	}
}

// TestSessionRejectsUnusedQueryFields pins resolution's fail-loudly
// contract: a populated field the op would silently ignore (a
// conditioned top-k, a second axis on a 1-D query, rule kinds on an
// average query) is an error, not a silently different mining run.
func TestSessionRejectsUnusedQueryFields(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(rel, Config{Buckets: 50})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Query{
		{Op: OpTopK, Numeric: "Balance", Objective: "CardLoan", K: 3,
			Conditions: []plan.Condition{{Attr: "AutoWithdraw", Value: true}}},
		{Op: OpRules, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan"},
		{Op: OpAverage, Numeric: "Balance", Target: "Age",
			Kinds: []RuleKind{OptimizedSupport}},
		{Op: OpRules, Numeric: "Balance", Objective: "CardLoan", GridSide: 32},
		{Op: OpRules2D, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan",
			Buckets: 100},
		{Op: OpConjunctive, Numeric: "Balance",
			Objectives: []plan.Condition{{Attr: "CardLoan", Value: true}}, K: 2},
	}
	answers, err := s.ExecuteBatch(bad)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		if a.Err == nil {
			t.Errorf("query %d with an op-unused field accepted: %+v", i, bad[i])
		}
	}
}

// TestSessionCacheEviction pins the LRU bound: a tiny budget forces
// evictions, the stats report them, and evicted statistics are
// recomputed correctly on the next query.
func TestSessionCacheEviction(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(rel, Config{Buckets: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(8 << 10) // far below one 500-bucket group's footprint
	first, err := s.MineAll()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mine2D("Balance", "Age", "CardLoan", true, OptimizedSupport, 64); err != nil {
		t.Fatal(err)
	}
	again, err := s.MineAll()
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqual(t, "post-eviction MineAll", again.Rules, first.Rules)
	if st := s.CacheStats(); st.Evictions == 0 {
		t.Errorf("tiny cache recorded no evictions: %+v", st)
	} else if st.MaxBytes != 8<<10 {
		t.Errorf("cache bound not applied: %+v", st)
	}
}

// sessionConcurrencyCheck hammers one shared session from many
// goroutines and requires every answer to match the sequential result.
// CI runs this under -race for the memory and sharded backends.
func sessionConcurrencyCheck(t *testing.T, rel relation.Relation) {
	t.Helper()
	s, err := NewSession(rel, Config{Buckets: 120, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	queries := mixedBatch()
	want, err := s.ExecuteBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, want)
	s.InvalidateCache()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Rotate the batch so goroutines collide on overlapping but
			// differently-ordered statistics.
			qs := append(append([]Query{}, queries[g%len(queries):]...), queries[:g%len(queries)]...)
			answers, err := s.ExecuteBatch(qs)
			if err != nil {
				errs <- err
				return
			}
			for i, a := range answers {
				j := (i + g%len(queries)) % len(queries)
				if a.Err != nil {
					errs <- fmt.Errorf("goroutine %d query %d: %w", g, i, a.Err)
					return
				}
				if !reflect.DeepEqual(a.Rules, want[j].Rules) ||
					!reflect.DeepEqual(a.Regions, want[j].Regions) ||
					!reflect.DeepEqual(a.Rules2D, want[j].Rules2D) ||
					!reflect.DeepEqual(a.Range, want[j].Range) {
					errs <- fmt.Errorf("goroutine %d query %d diverged from sequential answer", g, i)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestSessionConcurrentRowGrowth races cache-hit readers of one count
// group against publishers that keep ADDING objective rows to the
// same group key — the cache must merge by copy-on-write, never by
// mutating a published statistic a reader may hold (regression test
// for a concurrent map read/write crash; run under -race in CI).
func TestSessionConcurrentRowGrowth(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 1500, 29)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(rel, Config{Buckets: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the (Balance, 60, "") group with one objective row.
	if _, _, err := s.Mine("Balance", "CardLoan", true, nil); err != nil {
		t.Fatal(err)
	}
	objectives := []struct {
		attr string
		want bool
	}{
		{"CardLoan", true}, // steady cache-hit reader
		{"CardLoan", false},
		{"Mortgage", true},
		{"Mortgage", false},
		{"AutoWithdraw", true},
		{"AutoWithdraw", false},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(objectives))
	for _, obj := range objectives {
		wg.Add(1)
		go func(attr string, want bool) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, _, err := s.Mine("Balance", attr, want, nil); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(obj.attr, obj.want)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestSessionConcurrentMemory races concurrent batches on one shared
// session over the in-memory backend.
func TestSessionConcurrentMemory(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := datagen.Materialize(bank, 3000, 19)
	if err != nil {
		t.Fatal(err)
	}
	sessionConcurrencyCheck(t, rel)
}

// TestSessionConcurrentSharded races concurrent batches on one shared
// session over the sharded disk backend (concurrent sub-scans on).
func TestSessionConcurrentSharded(t *testing.T) {
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	manifest := t.TempDir() + "/rel.oprs"
	if err := datagen.WriteSharded(manifest, bank, 3000, 19, 3, 0); err != nil {
		t.Fatal(err)
	}
	sr, err := relation.OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	sr.SetConcurrentScans(2)
	sessionConcurrencyCheck(t, sr)
}
