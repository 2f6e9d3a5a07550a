package stats

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigSum is the independent oracle: it adds xs exactly in math/big and
// rounds once, with IEEE 754's rules for NaN and infinities. An exact
// zero reads as +0, as a sum started from +0 does.
func bigSum(xs []float64) float64 {
	var nan, pos, neg bool
	acc := new(big.Float).SetPrec(4096) // wide enough to hold any sum exactly
	for _, x := range xs {
		switch {
		case math.IsNaN(x):
			nan = true
		case math.IsInf(x, 1):
			pos = true
		case math.IsInf(x, -1):
			neg = true
		default:
			acc.Add(acc, new(big.Float).SetFloat64(x))
		}
	}
	switch {
	case nan || (pos && neg):
		return math.NaN()
	case pos:
		return math.Inf(1)
	case neg:
		return math.Inf(-1)
	case acc.Sign() == 0:
		return 0
	}
	f, _ := acc.Float64()
	return f
}

// sameBits reports whether a and b are the same float64, NaN included.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// sumOf is slot's rounded sum.
func sumOf(s *ExactSums, slot int) float64 {
	out := make([]float64, s.slots)
	s.Round(out)
	return out[slot]
}

// checkSlots requires every slot of s to equal the oracle's sum of the
// values added to it.
func checkSlots(t *testing.T, label string, s *ExactSums, bySlot [][]float64) {
	t.Helper()
	got := make([]float64, s.slots)
	s.Round(got)
	for slot, xs := range bySlot {
		if want := bigSum(xs); !sameBits(got[slot], want) {
			t.Fatalf("%s: slot %d sum %v (%#x), want %v (%#x) over %v",
				label, slot, got[slot], math.Float64bits(got[slot]), want, math.Float64bits(want), xs)
		}
	}
}

func TestExactSumsCancellation(t *testing.T) {
	s := NewExactSums(1)
	rowOrder := 0.0
	for _, x := range []float64{1e16, 1, -1e16} {
		s.Add(0, x)
		rowOrder += x
	}
	if got := sumOf(s, 0); got != 1 {
		t.Fatalf("1e16 + 1 - 1e16 = %v, want 1 (row order gives %v)", got, rowOrder)
	}
}

func TestExactSumsEdgeCases(t *testing.T) {
	maxF, tiny := math.MaxFloat64, math.SmallestNonzeroFloat64
	ulp := math.Nextafter(1, 2) - 1
	for _, tc := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"negative zeros", []float64{math.Copysign(0, -1), math.Copysign(0, -1)}, 0},
		{"cancel to zero", []float64{0.1, -0.1}, 0},
		{"subnormals", []float64{tiny, tiny, 3 * tiny}, 5 * tiny},
		{"subnormal to normal", []float64{0x1p-1022 - tiny, tiny}, 0x1p-1022},
		{"overflow", []float64{maxF, maxF}, math.Inf(1)},
		{"overflow cancelled", []float64{maxF, maxF, -maxF}, maxF},
		{"negative overflow", []float64{-maxF, -maxF}, math.Inf(-1)},
		{"tie to even down", []float64{1, ulp / 2}, 1},
		{"tie to even up", []float64{1 + ulp, ulp / 2}, 1 + 2*ulp},
		{"sticky breaks the tie", []float64{1, ulp / 2, tiny}, 1 + ulp},
		{"nan", []float64{1, math.NaN()}, math.NaN()},
		{"opposite infinities", []float64{math.Inf(1), 2, math.Inf(-1)}, math.NaN()},
		{"infinity wins", []float64{maxF, math.Inf(-1), maxF}, math.Inf(-1)},
		{"tenths", []float64{0.1, 0.2, 0.3}, 0.6},
	} {
		s := NewExactSums(2)
		for _, x := range tc.xs {
			s.Add(1, x)
		}
		if got := sumOf(s, 1); !sameBits(got, tc.want) {
			t.Errorf("%s: sum %v, want %v", tc.name, got, tc.want)
		}
		if got := sumOf(s, 0); !sameBits(got, 0) {
			t.Errorf("%s: untouched slot reads %v", tc.name, got)
		}
		if want := bigSum(tc.xs); !sameBits(tc.want, want) {
			t.Errorf("%s: table says %v, math/big says %v", tc.name, tc.want, want)
		}
	}
}

// TestExactSumsIntegerWidth pins the window: integer-valued data such
// as ages occupies three limbs per slot however many rows add up.
func TestExactSumsIntegerWidth(t *testing.T) {
	const slots = 1000
	s := NewExactSums(slots)
	rng := rand.New(rand.NewSource(1))
	idx := make([]int32, 8192)
	vals := make([]float64, len(idx))
	for batch := 0; batch < 50; batch++ {
		for r := range idx {
			idx[r] = int32(rng.Intn(slots))
			vals[r] = float64(18 + rng.Intn(73))
		}
		s.AddAt(idx, vals)
	}
	s.normalize()
	if s.Width() != 3 {
		t.Fatalf("integer ages use %d limbs per slot, want 3", s.Width())
	}
}

// TestExactSumsCarryGrowth drives a top limb past 32 bits, so
// normalization must widen the window upward, and checks the sums
// survive.
func TestExactSumsCarryGrowth(t *testing.T) {
	s := NewExactSums(1)
	const n = 1 << 17
	for i := 0; i < n; i++ {
		s.Add(0, math.MaxFloat64/4)
	}
	before := s.Width()
	s.normalize()
	if s.Width() <= before {
		t.Fatalf("width %d after normalizing, was %d: the top limb's carry had nowhere to go", s.Width(), before)
	}
	for i := 0; i < n-1; i++ {
		s.Add(0, -math.MaxFloat64/4)
	}
	if got := sumOf(s, 0); got != math.MaxFloat64/4 {
		t.Fatalf("sum %v, want %v", got, math.MaxFloat64/4)
	}
}

// randomValue draws from a mix of magnitudes and kinds: k/10, values
// from 1e-300 to 1e300 of either sign, integers, subnormals, -0, and
// rare NaN and infinities.
func randomValue(rng *rand.Rand, special bool) float64 {
	switch rng.Intn(8) {
	case 0:
		return float64(rng.Intn(2001)-1000) / 10
	case 1:
		return math.Copysign(math.Pow(10, float64(rng.Intn(601)-300)), float64(rng.Intn(2)*2-1))
	case 2:
		return float64(rng.Intn(100))
	case 3:
		return math.Float64frombits(uint64(rng.Int63n(1 << 52)))
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(200)-100))
	case 6:
		if special {
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
	}
	return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52)
}

// TestExactSumsOrderAndSplitFree adds random values into slots in
// random order, split across random partials that merge in random
// order, with carries normalized at random points, and requires every
// slot to equal the math/big oracle.
func TestExactSumsOrderAndSplitFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		slots := 1 + rng.Intn(5)
		bySlot := make([][]float64, slots)
		parts := make([]*ExactSums, 1+rng.Intn(4))
		for i := range parts {
			parts[i] = NewExactSums(slots)
		}
		n := rng.Intn(300)
		idx := make([]int32, 0, n)
		vals := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			slot := rng.Intn(slots)
			x := randomValue(rng, trial%4 == 0)
			bySlot[slot] = append(bySlot[slot], x)
			if rng.Intn(2) == 0 {
				parts[rng.Intn(len(parts))].Add(slot, x)
			} else {
				idx = append(idx, int32(slot))
				vals = append(vals, x)
			}
			if rng.Intn(50) == 0 {
				parts[rng.Intn(len(parts))].normalize()
			}
		}
		parts[rng.Intn(len(parts))].AddAt(idx, vals)
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		for _, p := range parts[1:] {
			parts[0].Merge(p)
		}
		checkSlots(t, "merged", parts[0], bySlot)
	}
}

// FuzzExactSums decodes the input into float64 values, deals them to
// slots and partials by the bytes of a second input, merges the
// partials, and compares every slot against math/big.
func FuzzExactSums(f *testing.F) {
	enc := func(xs ...float64) []byte {
		out := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
		}
		return out
	}
	f.Add(enc(1e16, 1, -1e16), []byte{0, 1, 2})
	f.Add(enc(0.1, 0.2, 0.3, -0.6), []byte{5, 9})
	f.Add(enc(math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64), []byte{1})
	f.Add(enc(math.SmallestNonzeroFloat64, -0.0, math.Inf(1), math.NaN()), []byte{3, 4, 7, 8})
	f.Fuzz(func(t *testing.T, data, deal []byte) {
		const slots = 3
		if len(deal) == 0 {
			deal = []byte{0}
		}
		parts := make([]*ExactSums, 1+int(deal[0])%4)
		for i := range parts {
			parts[i] = NewExactSums(slots)
		}
		bySlot := make([][]float64, slots)
		for i := 0; i+8 <= len(data); i += 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
			d := int(deal[(i/8)%len(deal)])
			slot := d % slots
			bySlot[slot] = append(bySlot[slot], x)
			p := parts[(d/slots)%len(parts)]
			if d&0x80 != 0 {
				p.AddAt([]int32{int32(slot)}, []float64{x})
			} else {
				p.Add(slot, x)
			}
		}
		for _, p := range parts[1:] {
			parts[0].Merge(p)
		}
		checkSlots(t, "fuzz", parts[0], bySlot)
	})
}

func BenchmarkExactSumsAddAt(b *testing.B) {
	const slots = 1001
	rng := rand.New(rand.NewSource(1))
	idx := make([]int32, 8192)
	vals := make([]float64, len(idx))
	for r := range idx {
		idx[r] = int32(rng.Intn(slots))
		vals[r] = rng.NormFloat64() * 1000
	}
	s := NewExactSums(slots)
	b.SetBytes(int64(8 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddAt(idx, vals)
	}
}
