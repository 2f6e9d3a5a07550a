package bucketing

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"optrule/internal/relation"
)

// multiRelation builds a relation with several numeric drivers (mixed
// scales, every 7th value of driver 1 NaN), one extra numeric target,
// and two Boolean attributes.
func multiRelation(t testing.TB, n int) *relation.MemoryRelation {
	t.Helper()
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "A", Kind: relation.Numeric},
		{Name: "B", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
		{Name: "T", Kind: relation.Numeric},
		{Name: "D", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		a := rng.Float64() * 100
		b := rng.NormFloat64() * 1000
		if i%7 == 0 {
			b = math.NaN()
		}
		rel.MustAppend([]float64{a, b, rng.Float64() * 10},
			[]bool{rng.Intn(3) == 0, rng.Intn(2) == 0})
	}
	return rel
}

// multiCase is a shared fixture: drivers {A, B}, per-driver boundaries,
// and options exercising objectives, a target sum, and extremes.
func multiCase(t testing.TB, opts Options) (*relation.MemoryRelation, []int, []Boundaries) {
	rel := multiRelation(t, 3000)
	drivers := []int{0, 1}
	b0, err := NewBoundaries([]float64{20, 40, 60, 80})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := NewBoundaries([]float64{-1000, 0, 1000})
	if err != nil {
		t.Fatal(err)
	}
	return rel, drivers, []Boundaries{b0, b1}
}

func multiOptions() Options {
	return Options{
		Bools:         []BoolCond{{Attr: 2, Want: true}, {Attr: 4, Want: false}},
		Targets:       []int{3},
		TrackExtremes: true,
	}
}

func TestMultiCountMatchesCountPerDriver(t *testing.T) {
	for _, withFilter := range []bool{false, true} {
		opts := multiOptions()
		if withFilter {
			opts.Filter = []BoolCond{{Attr: 4, Want: true}}
		}
		rel, drivers, bounds := multiCase(t, opts)
		got, err := MultiCount(rel, drivers, bounds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(drivers) {
			t.Fatalf("got %d counts, want %d", len(got), len(drivers))
		}
		for d, driver := range drivers {
			want, err := Count(rel, driver, bounds[d], opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[d], want) {
				t.Errorf("filter=%v driver %d: fused counts differ:\n got %+v\nwant %+v",
					withFilter, driver, got[d], want)
			}
		}
	}
}

func TestMultiCountValidation(t *testing.T) {
	opts := multiOptions()
	rel, drivers, bounds := multiCase(t, opts)
	if _, err := MultiCount(rel, nil, nil, opts); err == nil {
		t.Error("no drivers should be rejected")
	}
	if _, err := MultiCount(rel, drivers, bounds[:1], opts); err == nil {
		t.Error("mismatched bounds length should be rejected")
	}
	if _, err := MultiCount(rel, []int{0, 2}, bounds, opts); err == nil {
		t.Error("boolean driver should be rejected")
	}
	bad := opts
	bad.Bools = []BoolCond{{Attr: 0, Want: true}}
	if _, err := MultiCount(rel, drivers, bounds, bad); err == nil {
		t.Error("numeric objective should be rejected")
	}
}

func TestMultiSampledBoundariesMatchSampledBoundaries(t *testing.T) {
	rel := multiRelation(t, 3000)
	attrs := []int{0, 1, 3}
	const m, sf = 50, 10
	rngs := make([]*rand.Rand, len(attrs))
	for k, attr := range attrs {
		rngs[k] = rand.New(rand.NewSource(100 + int64(attr)))
	}
	got, err := MultiSampledBoundaries(rel, attrs, m, sf, 0, rngs)
	if err != nil {
		t.Fatal(err)
	}
	for k, attr := range attrs {
		rng := rand.New(rand.NewSource(100 + int64(attr)))
		want, err := SampledBoundaries(rel, attr, m, sf, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[k].Cuts(), want.Cuts()) {
			t.Errorf("attr %d: fused boundaries differ from SampledBoundaries", attr)
		}
	}
}

func TestMultiSampledBoundariesExactDomains(t *testing.T) {
	// Attribute 0 has 8 distinct values (finest buckets apply);
	// attribute 1 is continuous (sampled equi-depth fallback).
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "Small", Kind: relation.Numeric},
		{Name: "Big", Kind: relation.Numeric},
		{Name: "C", Kind: relation.Boolean},
	})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		rel.MustAppend([]float64{float64(i % 8), rng.Float64()}, []bool{i%2 == 0})
	}
	attrs := []int{0, 1}
	rngs := []*rand.Rand{rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))}
	bounds, err := MultiSampledBoundaries(rel, attrs, 20, 10, 10, rngs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DistinctValueBoundaries(rel, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bounds[0].Cuts(), want.Cuts()) {
		t.Errorf("finest buckets differ: got %v want %v", bounds[0].Cuts(), want.Cuts())
	}
	if bounds[0].NumBuckets() != 8 {
		t.Errorf("finest bucket count = %d, want 8", bounds[0].NumBuckets())
	}
	wantSampled, err := SampledBoundaries(rel, 1, 20, 10, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bounds[1].Cuts(), wantSampled.Cuts()) {
		t.Errorf("large-domain attribute should fall back to sampled boundaries")
	}
}

func TestDistinctValueBoundariesRejectsNaN(t *testing.T) {
	rel := relation.MustNewMemoryRelation(relation.Schema{
		{Name: "X", Kind: relation.Numeric},
	})
	for i := 0; i < 100; i++ {
		x := float64(i % 4)
		if i == 50 {
			x = math.NaN()
		}
		rel.MustAppend([]float64{x}, nil)
	}
	// NaN can't be a well-ordered cut point: finest buckets must be
	// refused so callers fall back to sampling, matching the fused
	// MultiSampledBoundaries tracker.
	if _, err := DistinctValueBoundaries(rel, 0, 10); err == nil {
		t.Error("NaN-bearing attribute accepted for finest buckets")
	}
}

func TestMultiSampledBoundariesSingleBucket(t *testing.T) {
	rel := multiRelation(t, 100)
	counting := &relation.CountingRelation{R: rel}
	rngs := []*rand.Rand{rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))}
	bounds, err := MultiSampledBoundaries(counting, []int{0, 1}, 1, 40, 0, rngs)
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range bounds {
		if b.NumBuckets() != 1 {
			t.Errorf("attr %d: buckets = %d, want 1", k, b.NumBuckets())
		}
	}
	if counting.Scans != 0 {
		t.Errorf("single-bucket boundaries should need no scan, got %d", counting.Scans)
	}
}

func TestMultiCountOneFusedScan(t *testing.T) {
	opts := multiOptions()
	rel, drivers, bounds := multiCase(t, opts)
	counting := &relation.CountingRelation{R: rel}
	if _, err := MultiCount(counting, drivers, bounds, opts); err != nil {
		t.Fatal(err)
	}
	if counting.Scans != 1 {
		t.Errorf("MultiCount issued %d scans, want 1", counting.Scans)
	}
	if counting.Rows != int64(rel.NumTuples()) {
		t.Errorf("MultiCount read %d rows, want %d", counting.Rows, rel.NumTuples())
	}
}
