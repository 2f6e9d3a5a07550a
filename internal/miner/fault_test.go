package miner

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"optrule/internal/relation"
)

// faultyRelation wraps a relation and fails the Nth scan — fault
// injection for the orchestration layer: errors from any of the passes
// (sampling, counting) must surface, never panic or deadlock. The scan
// counter is atomic because MineAll's workers scan concurrently.
type faultyRelation struct {
	relation.Relation
	failOn int64 // scan number to fail (1-based)
	scans  atomic.Int64
}

func (f *faultyRelation) Scan(cols relation.ColumnSet, fn func(*relation.Batch) error) error {
	if n := f.scans.Add(1); n == f.failOn {
		return fmt.Errorf("injected fault on scan %d", n)
	}
	return f.Relation.Scan(cols, fn)
}

func TestMineAllSurfacesScanErrors(t *testing.T) {
	base, _ := bankRelation(t, 2000)
	// The fused pipeline performs exactly two scans: the sampling scan
	// and the counting scan. Fail each.
	for failOn := 1; failOn <= 2; failOn++ {
		rel := &faultyRelation{Relation: base, failOn: int64(failOn)}
		_, err := MineAll(rel, Config{Buckets: 50, Seed: 1, Workers: 1})
		if err == nil {
			t.Fatalf("failOn=%d: injected fault swallowed", failOn)
		}
		if !strings.Contains(err.Error(), "injected fault") {
			t.Fatalf("failOn=%d: unexpected error: %v", failOn, err)
		}
	}
}

func TestMineAllSurfacesErrorsUnderConcurrency(t *testing.T) {
	base, _ := bankRelation(t, 2000)
	// Fused path: fail each of its two scans with workers racing in
	// phase 3 — the error must still surface and the call must return
	// (no goroutine leak / deadlock).
	for failOn := 1; failOn <= 2; failOn++ {
		rel := &faultyRelation{Relation: base, failOn: int64(failOn)}
		if _, err := MineAll(rel, Config{Buckets: 50, Seed: 1, Workers: 8}); err == nil {
			t.Fatal("injected fault swallowed with concurrent workers")
		}
	}
}

func TestTargetedMineSurfacesScanErrors(t *testing.T) {
	base, _ := bankRelation(t, 1000)
	rel := &faultyRelation{Relation: base, failOn: 2}
	if _, _, err := Mine(rel, "Balance", "CardLoan", true, nil, Config{Buckets: 20, Seed: 1}); err == nil {
		t.Fatal("injected fault swallowed")
	}
	rel2 := &faultyRelation{Relation: base, failOn: 1}
	if _, err := MaxAverageRange(rel2, "Balance", "Age", 0.1, Config{Buckets: 20}); err == nil {
		t.Fatal("injected fault swallowed in average mode")
	}
	rel3 := &faultyRelation{Relation: base, failOn: 1}
	if _, err := BuildProfile(rel3, "Balance", "CardLoan", true, 10, Config{}); err == nil {
		t.Fatal("injected fault swallowed in profile")
	}
	rel4 := &faultyRelation{Relation: base, failOn: 2}
	if _, err := Mine2D(rel4, "Balance", "Age", "CardLoan", true, OptimizedSupport, 8, Config{}); err == nil {
		t.Fatal("injected fault swallowed in 2D mining")
	}
	rel5 := &faultyRelation{Relation: base, failOn: 1}
	if _, err := Describe(rel5); err == nil {
		t.Fatal("injected fault swallowed in describe")
	}
	rel6 := &faultyRelation{Relation: base, failOn: 1}
	if _, err := Verify(rel6, Rule{Numeric: "Balance", Objective: "CardLoan"}, nil); err == nil {
		t.Fatal("injected fault swallowed in verify")
	}
}
