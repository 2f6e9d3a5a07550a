package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"

	"optrule/internal/datagen"
	"optrule/internal/miner"
)

// The query batches the workloads send. All of them run over the bank
// relation of internal/datagen (Balance, Age, ServiceYears numeric;
// CardLoan, Mortgage, AutoWithdraw Boolean).

const filterAttr = "AutoWithdraw"

var (
	cardLoan = []miner.Condition{{Attr: "CardLoan", Value: true}}
	mortgage = []miner.Condition{{Attr: "Mortgage", Value: true}}
	autoYes  = []miner.Condition{{Attr: filterAttr, Value: true}}
)

// coldBatch is cold-batch's fixed mixed batch: every statistic it
// needs misses a fresh session, so each op costs one sampling and one
// counting scan.
func coldBatch() []miner.Query {
	return []miner.Query{
		{Op: miner.OpRules},
		{Op: miner.OpRules2D, Objective: "CardLoan", ObjectiveValue: true, GridSide: 64,
			Regions: []miner.RegionClass{miner.XMonotoneClass}},
		{Op: miner.OpConjunctive, Numeric: "Age", Objectives: cardLoan, Conditions: mortgage},
		{Op: miner.OpTopK, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true, K: 3},
		{Op: miner.OpAverage, Numeric: "Balance", Target: "Age", MinSupport: 0.1},
	}
}

// thresholds are the (MinSupport, MinConfidence) variants warm-requery
// draws from; none of them changes a statistic's cache key.
var thresholds = [][2]float64{{0.05, 0.5}, {0.08, 0.55}, {0.12, 0.6}}

// warmClasses is warm-requery's finite variant set: one slice per
// query class, one entry per variant. Each op sends one variant of
// every class, so every op is a six-query batch of the same shape.
func warmClasses() [][]miner.Query {
	classes := make([][]miner.Query, 6)
	for i, t := range thresholds {
		sup, conf := t[0], t[1]
		classes[0] = append(classes[0], miner.Query{Op: miner.OpRules2D, Objective: "CardLoan",
			ObjectiveValue: true, GridSide: 64, MinSupport: sup, MinConfidence: conf,
			Regions: []miner.RegionClass{miner.XMonotoneClass}})
		classes[1] = append(classes[1], miner.Query{Op: miner.OpRules2D, Numeric: "Balance",
			NumericB: "Age", Objective: "CardLoan", ObjectiveValue: true, GridSide: 32,
			MinSupport: sup, MinConfidence: conf,
			Regions: []miner.RegionClass{miner.RectilinearConvexClass}})
		classes[2] = append(classes[2], miner.Query{Op: miner.OpRules, MinSupport: sup, MinConfidence: conf})
		classes[3] = append(classes[3], miner.Query{Op: miner.OpTopK, Numeric: "Balance",
			Objective: "CardLoan", ObjectiveValue: true, K: 3 + 2*i})
		classes[4] = append(classes[4], miner.Query{Op: miner.OpAverage, Numeric: "Balance",
			Target: "Age", MinSupport: 0.1 * float64(i+1)})
		classes[5] = append(classes[5], miner.Query{Op: miner.OpConjunctive, Numeric: "Age",
			Objectives: cardLoan, Conditions: mortgage, MinSupport: sup, MinConfidence: conf})
	}
	return classes
}

// pickVariants draws one variant index per class.
func pickVariants(rng *rand.Rand, classes [][]miner.Query) []int {
	picks := make([]int, len(classes))
	for c := range classes {
		picks[c] = rng.Intn(len(classes[c]))
	}
	return picks
}

// ingestBatch is the mixed batch the ingest-filtered warm session
// re-answers after every append. It has no average query: averages
// carry float sums that the delta path recounts instead of folding.
func ingestBatch() []miner.Query {
	return []miner.Query{
		{Op: miner.OpRules},
		{Op: miner.OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true},
		{Op: miner.OpRules, Numeric: "Age", Objective: "Mortgage", ObjectiveValue: true, Conditions: autoYes},
		{Op: miner.OpRules2D, Numeric: "Balance", NumericB: "Age", Objective: "CardLoan",
			ObjectiveValue: true, GridSide: 32, Regions: []miner.RegionClass{miner.XMonotoneClass}},
		{Op: miner.OpTopK, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true, K: 3},
		{Op: miner.OpConjunctive, Numeric: "Age", Objectives: cardLoan, Conditions: mortgage},
	}
}

// readBatch is ingest-filtered's read op: 1-D queries that all carry
// AutoWithdraw=yes. The all-attribute query comes first, so every
// driver's count group wants the same objectives and the batch takes
// the homogeneous MultiCount path with zone-map pushdown.
func readBatch() []miner.Query {
	return []miner.Query{
		{Op: miner.OpRules, Conditions: autoYes},
		{Op: miner.OpRules, Numeric: "Balance", Objective: "CardLoan", ObjectiveValue: true,
			MinConfidence: 0.6, Conditions: autoYes},
		{Op: miner.OpRules, Numeric: "Age", Objective: "Mortgage", ObjectiveValue: true,
			MinSupport: 0.08, Conditions: autoYes},
	}
}

// sameAnswers compares two answer sets field for field; the first
// difference is the error.
func sameAnswers(got, want []miner.Answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case (g.Err == nil) != (w.Err == nil):
			return fmt.Errorf("answer %d (%s): error %v, want %v", i, g.Query.Op, g.Err, w.Err)
		case !reflect.DeepEqual(g.Rules, w.Rules):
			return fmt.Errorf("answer %d (%s): rules differ", i, g.Query.Op)
		case !reflect.DeepEqual(g.Rules2D, w.Rules2D):
			return fmt.Errorf("answer %d (%s): 2-D rules differ", i, g.Query.Op)
		case !reflect.DeepEqual(g.Regions, w.Regions):
			return fmt.Errorf("answer %d (%s): regions differ", i, g.Query.Op)
		case !reflect.DeepEqual(g.Range, w.Range):
			return fmt.Errorf("answer %d (%s): range differs", i, g.Query.Op)
		case g.Pairs != w.Pairs || g.Tuples != w.Tuples:
			return fmt.Errorf("answer %d (%s): %d pairs over %d tuples, want %d over %d",
				i, g.Query.Op, g.Pairs, g.Tuples, w.Pairs, w.Tuples)
		}
	}
	return nil
}

// answerErr returns the first per-query error of a batch.
func answerErr(answers []miner.Answer) error {
	for i, a := range answers {
		if a.Err != nil {
			return fmt.Errorf("query %d (%s): %w", i, a.Query.Op, a.Err)
		}
	}
	return nil
}

// minPlantedLift is the lift a recovered planted rule must reach; the
// bank generator plants rules with lift near 1.8 (CardLoan) and 2.7
// (Mortgage).
const minPlantedLift = 1.3

// minPlantedOverlap is the share of a recovered rule's range that must
// lie inside the planted range. Ranges are unions of buckets, so an
// end bucket may straddle a planted endpoint by a little.
const minPlantedOverlap = 0.9

// recoversPlanted checks that rules contain an optimized-confidence
// rule within each planted range of the bank generator, with its
// objective, at a lift no bucketing noise explains.
func recoversPlanted(rules []miner.Rule) error {
	cfg := datagen.DefaultBankConfig()
	for _, p := range []datagen.PlantedRule{cfg.CardLoan, cfg.Mortgage} {
		found := false
		for _, r := range rules {
			if r.Kind == miner.OptimizedConfidence && r.Numeric == p.Driver &&
				r.Objective == p.Target && r.ObjectiveValue &&
				insideShare(r.Low, r.High, p.Range) >= minPlantedOverlap && r.Lift() >= minPlantedLift {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("planted rule %s in %v => %s not recovered", p.Driver, p.Range, p.Target)
		}
	}
	return nil
}

// insideShare is the share of [lo, hi] that lies inside want; a point
// range counts as inside or not.
func insideShare(lo, hi float64, want [2]float64) float64 {
	if hi <= lo {
		if lo >= want[0] && lo <= want[1] {
			return 1
		}
		return 0
	}
	in := math.Min(hi, want[1]) - math.Max(lo, want[0])
	if in <= 0 {
		return 0
	}
	return in / (hi - lo)
}
