package miner

import (
	"math"
	"math/rand"
	"testing"

	"optrule/internal/relation"
)

func TestVerifyMatchesMinedRuleExactly(t *testing.T) {
	rel, _ := bankRelation(t, 30000)
	sup, conf, err := Mine(rel, "Balance", "CardLoan", true, nil, Config{
		MinConfidence: 0.55, MinSupport: 0.05, Buckets: 300, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Rule{sup, conf} {
		if r == nil {
			t.Fatal("missing rule")
		}
		v, err := Verify(rel, *r, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The mined Count/Support/Confidence come from bucket counts over
		// the same closed range [Low, High] (observed extremes), so the
		// exact rescan must agree exactly.
		if v.Count != r.Count {
			t.Errorf("%s rule: verified count %d != mined %d", r.Kind, v.Count, r.Count)
		}
		if math.Abs(v.Support-r.Support) > 1e-12 {
			t.Errorf("%s rule: verified support %g != mined %g", r.Kind, v.Support, r.Support)
		}
		if math.Abs(v.Confidence-r.Confidence) > 1e-12 {
			t.Errorf("%s rule: verified confidence %g != mined %g", r.Kind, v.Confidence, r.Confidence)
		}
		if math.Abs(v.Baseline-r.Baseline) > 1e-12 {
			t.Errorf("%s rule: verified baseline %g != mined %g", r.Kind, v.Baseline, r.Baseline)
		}
	}
}

func TestVerifyWithConditions(t *testing.T) {
	rel, _ := bankRelation(t, 20000)
	conds := []Condition{{Attr: "AutoWithdraw", Value: true}}
	sup, _, err := Mine(rel, "Balance", "CardLoan", true, conds, Config{
		MinConfidence: 0.55, Buckets: 200, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sup == nil {
		t.Fatal("no rule")
	}
	v, err := Verify(rel, *sup, conds)
	if err != nil {
		t.Fatal(err)
	}
	if v.Count != sup.Count || math.Abs(v.Confidence-sup.Confidence) > 1e-12 {
		t.Errorf("conditional verify mismatch: %+v vs %+v", v, sup)
	}
	// Verifying WITHOUT the condition changes the statistics.
	v2, err := Verify(rel, *sup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Total == v.Total {
		t.Errorf("unconditional verify should scan more tuples (%d vs %d)", v2.Total, v.Total)
	}
}

func TestVerifyValidation(t *testing.T) {
	rel, _ := bankRelation(t, 100)
	if _, err := Verify(rel, Rule{Numeric: "Nope", Objective: "CardLoan"}, nil); err == nil {
		t.Errorf("unknown numeric accepted")
	}
	if _, err := Verify(rel, Rule{Numeric: "Balance", Objective: "Nope"}, nil); err == nil {
		t.Errorf("unknown objective accepted")
	}
	if _, err := Verify(rel, Rule{Numeric: "Balance", Objective: "CardLoan"},
		[]Condition{{Attr: "Balance"}}); err == nil {
		t.Errorf("numeric condition accepted")
	}
	// Conditions excluding everything.
	empty := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Boolean},
	})
	empty.MustAppend([]float64{1}, []bool{false})
	if _, err := Verify(empty, Rule{Numeric: "X", Objective: "B", ObjectiveValue: true},
		[]Condition{{Attr: "B", Value: true}}); err == nil {
		t.Errorf("empty filtered scan accepted")
	}
}

// TestVerifySkipsNaNDrivers pins Verify to mining's NaN semantics: a
// row whose numeric attribute is NaN belongs to no bucket, so it must
// count toward neither the range nor the totals support and baseline
// divide by. Every fifth A here is NaN (so ExactDomainLimit falls back
// to sampled buckets), and the default 1000 buckets still give each of
// A's 40 values a bucket of its own, so the mined rules are exact and
// the audit must reproduce them to the last bit.
func TestVerifySkipsNaNDrivers(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "A", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a := float64(rng.Intn(40))
		hit := rng.Float64() < 0.25 || (a >= 10 && a < 20 && rng.Float64() < 0.6)
		if i%5 == 0 {
			a = math.NaN()
			hit = rng.Float64() < 0.5
		}
		rel.MustAppend([]float64{a}, []bool{hit})
	}
	sup, conf, err := Mine(rel, "A", "B", true, nil, Config{
		MinConfidence: 0.4, MinSupport: 0.05, Seed: 1, ExactDomainLimit: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Rule{sup, conf} {
		if r == nil {
			t.Fatal("missing rule")
		}
		v, err := Verify(rel, *r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.Total != 1600 {
			t.Errorf("%s rule: verified total %d, want the 1600 non-NaN rows", r.Kind, v.Total)
		}
		if v.Count != r.Count || v.Support != r.Support || v.Confidence != r.Confidence || v.Baseline != r.Baseline {
			t.Errorf("%s rule: verified %+v, mined count %d support %g confidence %g baseline %g",
				r.Kind, v, r.Count, r.Support, r.Confidence, r.Baseline)
		}
	}
}
