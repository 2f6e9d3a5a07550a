package miner

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"optrule/internal/plan"
	"optrule/internal/relation"
)

// ageRelation has an integer Age domain (18…90) with a planted
// high-confidence band [30, 45].
func ageRelation(t testing.TB, n int) *relation.MemoryRelation {
	t.Helper()
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "Age", Kind: relation.Numeric},
		{Name: "Mortgage", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(13))
	rel.Grow(n)
	for i := 0; i < n; i++ {
		age := float64(18 + rng.Intn(73))
		p := 0.08
		if age >= 30 && age <= 45 {
			p = 0.6
		}
		rel.MustAppend([]float64{age}, []bool{rng.Float64() < p})
	}
	return rel
}

func TestExactDomainModeUsesFinestBuckets(t *testing.T) {
	rel := ageRelation(t, 50000)
	cfg := Config{
		MinSupport:       0.05,
		MinConfidence:    0.5,
		ExactDomainLimit: 100, // Age has 73 distinct values
		Seed:             1,
	}
	sup, conf, err := Mine(rel, "Age", "Mortgage", true, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sup == nil || conf == nil {
		t.Fatal("rules missing in exact mode")
	}
	// With finest buckets the rule endpoints are exact integer ages.
	for _, r := range []*Rule{sup, conf} {
		if r.Low != math.Trunc(r.Low) || r.High != math.Trunc(r.High) {
			t.Errorf("exact-mode endpoints not on domain values: [%g, %g]", r.Low, r.High)
		}
		if r.Buckets != 73 {
			t.Errorf("exact mode should use 73 finest buckets, got %d", r.Buckets)
		}
	}
	// The optimized-support rule at θ=0.5 must be exactly the planted
	// band [30, 45]: inside confidence 0.6 >= 0.5, and any adjacent age
	// at 0.08 would dilute below... actually dilution tolerance is
	// (0.6-0.5)/(0.5-0.08) ≈ 0.24 of the band mass, so allow slack of a
	// few years; the core band must be covered.
	if sup.Low > 30 || sup.High < 45 {
		t.Errorf("support rule [%g, %g] fails to cover the planted band [30, 45]", sup.Low, sup.High)
	}
	if sup.Low < 25 || sup.High > 50 {
		t.Errorf("support rule [%g, %g] extends too far beyond [30, 45]", sup.Low, sup.High)
	}
}

func TestExactDomainModeMatchesBruteForce(t *testing.T) {
	// On a small integer domain, compare the exact-mode optimized
	// support rule against brute force over all value ranges.
	rel := ageRelation(t, 20000)
	ages, _ := rel.NumericColumn(0)
	hits, _ := rel.BoolColumn(1)
	theta := 0.5

	// Brute force over integer ranges [a, b].
	const lo, hi = 18, 90
	var cu, cv [hi + 1]int
	for i, a := range ages {
		cu[int(a)]++
		if hits[i] {
			cv[int(a)]++
		}
	}
	bestCount := -1
	for a := lo; a <= hi; a++ {
		su, sv := 0, 0
		for b := a; b <= hi; b++ {
			su += cu[b]
			sv += cv[b]
			if su > 0 && float64(sv) >= theta*float64(su) && su > bestCount {
				bestCount = su
			}
		}
	}

	sup, _, err := Mine(rel, "Age", "Mortgage", true, nil, Config{
		MinConfidence: theta, ExactDomainLimit: 100, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sup == nil {
		t.Fatal("no exact-mode rule")
	}
	if sup.Count != bestCount {
		t.Errorf("exact-mode support %d != brute force %d", sup.Count, bestCount)
	}
}

func TestExactDomainFallsBackOnLargeDomains(t *testing.T) {
	// A continuous attribute exceeds any reasonable distinct-value cap;
	// mining must silently fall back to sampled buckets.
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		rel.MustAppend([]float64{rng.Float64()}, []bool{rng.Intn(2) == 0})
	}
	sup, _, err := Mine(rel, "X", "B", true, nil, Config{
		ExactDomainLimit: 50, Buckets: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sup == nil {
		t.Fatal("fallback mining produced no rule")
	}
	if sup.Buckets > 100 {
		t.Errorf("fallback should use <= 100 sampled buckets, got %d", sup.Buckets)
	}
}

// TestSessionRejectsExactDomainLimitAboveMaxBuckets pins the bucket
// ceiling on finest buckets: a finest bucketing has one bucket per
// distinct value, so an ExactDomainLimit above plan.MaxBuckets would
// let a high-cardinality column (a million distinct balances) cache a
// group past the ceiling every explicit bucket count must meet.
// NewSession, and every one-shot entry point through it, rejects such
// a limit with plan.ErrResolutionTooLarge; the ceiling itself is
// accepted.
func TestSessionRejectsExactDomainLimitAboveMaxBuckets(t *testing.T) {
	rel, _ := bankRelation(t, 2000)
	over := Config{ExactDomainLimit: plan.MaxBuckets + 1}
	if _, err := NewSession(rel, over); !errors.Is(err, plan.ErrResolutionTooLarge) {
		t.Fatalf("NewSession with ExactDomainLimit %d: err = %v, want ErrResolutionTooLarge",
			over.ExactDomainLimit, err)
	}
	if _, _, err := Mine(rel, "Balance", "CardLoan", true, nil, over); !errors.Is(err, plan.ErrResolutionTooLarge) {
		t.Fatalf("Mine with ExactDomainLimit %d: err = %v, want ErrResolutionTooLarge",
			over.ExactDomainLimit, err)
	}
	if _, err := NewSession(rel, Config{ExactDomainLimit: plan.MaxBuckets}); err != nil {
		t.Fatalf("NewSession at the ceiling: %v", err)
	}
}
