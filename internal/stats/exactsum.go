package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// ExactSums accumulates, for each of a fixed number of slots, the exact
// sum of the float64 values added to it, and reads each sum out rounded
// once to the nearest float64 (ties to even). The result depends only
// on the multiset of values a slot received, never on the order they
// arrived in or on how they were split between accumulators that were
// later merged, so a counting scan may add rows in any order, on any
// number of workers, and fold its partials in any order.
//
// Every finite float64 is an integer multiple of 2^-1074. A slot holds
// that integer as signed int64 limbs spaced 32 bits apart (limb k
// weighs 2^(32k-1074)), in the style of Neal's small superaccumulator
// ("Fast Exact Summation Using Small and Large Superaccumulators",
// arXiv:1505.05571). Adding a value splits its 53-bit mantissa over the
// three limbs its exponent selects and adds the pieces under a sign
// mask; merging adds limbs; carries are normalized lazily, before any
// limb could overflow. NaN, +Inf and -Inf are counted per slot, so the
// read-out follows IEEE 754: NaN if the slot saw a NaN or both
// infinities, otherwise the infinity it saw, otherwise the rounded sum.
//
// The limbs cover only the exponent window the added values have shown
// so far, shared by all slots and widened on demand: integer-valued
// data such as ages costs three limbs per slot, not the 66 a
// full-range accumulator needs.
type ExactSums struct {
	slots   int
	lo      int     // index of the window's lowest limb
	width   int     // limbs per slot
	limbs   []int64 // slot-major: slot s owns limbs[s*width : (s+1)*width]
	pending int     // additions since carries were last normalized
	special []int   // per slot: NaN, +Inf, -Inf counts; nil until one arrives
}

const (
	limbBits = 32
	limbMask = 1<<limbBits - 1
	// maxPending bounds the additions between carry normalizations.
	// Normalized limbs lie in (-2^32, 2^32) and every addition moves a
	// limb by less than 2^32, so 2^30 additions keep each limb below
	// 2^63 in magnitude.
	maxPending = 1 << 30
	// outside pushes a non-finite value's limb index out of every
	// window, onto the slow path.
	outside = 1 << 20
)

// NewExactSums returns an accumulator of slots zero sums.
func NewExactSums(slots int) *ExactSums {
	return &ExactSums{slots: slots}
}

// Width reports the limbs each slot currently holds.
func (s *ExactSums) Width() int { return s.width }

// Add adds x into slot.
func (s *ExactSums) Add(slot int, x float64) {
	s.AddAt([]int32{int32(slot)}, []float64{x})
}

// AddAt adds vals[r] into slot idx[r] for every r. It is the counting
// kernels' scatter loop: a finite value whose limbs the window already
// covers takes no data-dependent branch, and add handles the rest.
func (s *ExactSums) AddAt(idx []int32, vals []float64) {
	vals = vals[:len(idx)]
	s.reserve(len(idx))
	lo, width, limbs := s.lo, s.width, s.limbs
	span := uint(max(width-2, 0)) // valid k: [0, width-3]
	for r, slot := range idx {
		b := math.Float64bits(vals[r])
		k, o, mant := split(b)
		// A zero contributes nothing: aim it at the window's first limb.
		k = (k - lo) & -int((mant|-mant)>>63)
		if uint(k) >= span {
			s.add(int(slot), vals[r])
			lo, width, limbs = s.lo, s.width, s.limbs
			span = uint(max(width-2, 0))
			continue
		}
		base := int(slot)*width + k
		addMant(limbs[base:base+3:base+3], b, o, mant)
	}
}

// addMant adds the value with float64 bits b, split into mant and its
// offset o, into the three limbs l its exponent selects: the mantissa
// shifted by o spans at most 84 bits, and each 32-bit piece is negated
// under b's sign mask.
func addMant(l []int64, b uint64, o uint, mant uint64) {
	neg := int64(b) >> 63
	sh := mant << o
	l[0] += (int64(sh&limbMask) ^ neg) - neg
	l[1] += (int64(sh>>limbBits) ^ neg) - neg
	l[2] += (int64(mant>>(64-o)) ^ neg) - neg
}

// split decodes float64 bits b into the index k of the lowest limb its
// mantissa touches, the mantissa's bit offset o within that limb, and
// the integer mantissa itself (b's magnitude is mant·2^(32k+o-1074)).
// A non-finite value's k lies outside every window.
func split(b uint64) (k int, o uint, mant uint64) {
	e := int(b>>52) & 0x7ff
	normal := (e + 0x7ff) >> 11 // 0 for zeros and subnormals, else 1
	p := e - normal             // bit position of the mantissa's lowest bit
	mant = b&(1<<52-1) | uint64(normal)<<52
	nonFinite := (e + 1) >> 11
	return p>>5 + nonFinite*outside, uint(p & 31), mant
}

// add is AddAt's general path for one value: it counts non-finite
// values, skips zeros, and widens the window to cover the rest.
func (s *ExactSums) add(slot int, x float64) {
	if slot < 0 || slot >= s.slots {
		panic(fmt.Sprintf("stats: ExactSums slot %d out of range [0,%d)", slot, s.slots))
	}
	b := math.Float64bits(x)
	k, o, mant := split(b)
	switch {
	case math.IsNaN(x):
		s.countSpecial(slot, 0)
		return
	case math.IsInf(x, 1):
		s.countSpecial(slot, 1)
		return
	case math.IsInf(x, -1):
		s.countSpecial(slot, 2)
		return
	case mant == 0:
		return
	}
	s.cover(k, k+3)
	base := slot*s.width + k - s.lo
	addMant(s.limbs[base:base+3:base+3], b, o, mant)
}

func (s *ExactSums) countSpecial(slot, kind int) {
	if s.special == nil {
		s.special = make([]int, 3*s.slots)
	}
	s.special[3*slot+kind]++
}

// reserve accounts for n more additions, normalizing carries first when
// the limbs could otherwise overflow.
func (s *ExactSums) reserve(n int) {
	for n > 0 {
		if s.pending >= maxPending {
			s.normalize()
		}
		step := min(n, maxPending-s.pending)
		s.pending += step
		n -= step
	}
}

// cover widens the window to include limbs [lo, hi).
func (s *ExactSums) cover(lo, hi int) {
	if s.width > 0 {
		if lo >= s.lo && hi <= s.lo+s.width {
			return
		}
		lo, hi = min(lo, s.lo), max(hi, s.lo+s.width)
	}
	width := hi - lo
	limbs := make([]int64, s.slots*width)
	if s.width > 0 {
		off := s.lo - lo
		for slot := 0; slot < s.slots; slot++ {
			copy(limbs[slot*width+off:], s.limbs[slot*s.width:(slot+1)*s.width])
		}
	}
	s.lo, s.width, s.limbs = lo, width, limbs
}

// normalize propagates carries so every limb but each slot's top one
// lies in [0, 2^32) and the top one in (-2^32, 2^32), widening the
// window upward when a top limb would not fit. The represented sums do
// not change.
func (s *ExactSums) normalize() {
	s.pending = 0
	if s.width == 0 {
		return
	}
	for {
		grow := false
		for slot := 0; slot < s.slots; slot++ {
			l := s.limbs[slot*s.width : (slot+1)*s.width]
			carryLimbs(l)
			top := l[len(l)-1]
			grow = grow || top >= 1<<limbBits || top <= -1<<limbBits
		}
		if !grow {
			return
		}
		s.cover(s.lo, s.lo+s.width+1)
	}
}

// carryLimbs moves every limb's excess above 32 bits into the next
// limb, leaving all but the last in [0, 2^32).
func carryLimbs(l []int64) {
	for i := 0; i < len(l)-1; i++ {
		c := l[i] >> limbBits
		l[i] &= limbMask
		l[i+1] += c
	}
}

// Merge adds every slot of o into the same slot of s. Both must have
// the same number of slots. o's sums are unchanged, though its carries
// may be normalized.
func (s *ExactSums) Merge(o *ExactSums) {
	if s.slots != o.slots {
		panic(fmt.Sprintf("stats: merging ExactSums of %d slots into %d", o.slots, s.slots))
	}
	if o.special != nil {
		if s.special == nil {
			s.special = make([]int, 3*s.slots)
		}
		for i, c := range o.special {
			s.special[i] += c
		}
	}
	if o.width == 0 {
		return
	}
	// A merged limb is bounded like one that saw both sides' additions
	// plus one more normalized limb's worth.
	if s.pending+o.pending+1 > maxPending {
		s.normalize()
		o.normalize()
	}
	s.cover(o.lo, o.lo+o.width)
	s.pending += o.pending + 1
	off := o.lo - s.lo
	for slot := 0; slot < s.slots; slot++ {
		dst := s.limbs[slot*s.width+off : slot*s.width+off+o.width]
		for i, v := range o.limbs[slot*o.width : (slot+1)*o.width] {
			dst[i] += v
		}
	}
}

// Round writes the sums of slots [0, len(dst)), each rounded once to
// the nearest float64, into dst, which must not outnumber the slots.
func (s *ExactSums) Round(dst []float64) {
	if len(dst) > s.slots {
		panic(fmt.Sprintf("stats: rounding %d sums out of %d slots", len(dst), s.slots))
	}
	scratch := make([]int64, s.width+2)
	for slot := range dst {
		dst[slot] = s.sum(slot, scratch)
	}
}

// sum rounds one slot, using scratch (width+2 limbs) as working space.
func (s *ExactSums) sum(slot int, scratch []int64) float64 {
	if s.special != nil {
		nan, pos, neg := s.special[3*slot], s.special[3*slot+1], s.special[3*slot+2]
		switch {
		case nan > 0 || (pos > 0 && neg > 0):
			return math.NaN()
		case pos > 0:
			return math.Inf(1)
		case neg > 0:
			return math.Inf(-1)
		}
	}
	// Two spare limbs take the top limb's carries, so the last one ends
	// up holding only the sign.
	l := scratch[:s.width+2]
	copy(l, s.limbs[slot*s.width:(slot+1)*s.width])
	l[s.width], l[s.width+1] = 0, 0
	carryLimbs(l)
	negative := l[len(l)-1] < 0
	if negative {
		for i := range l {
			l[i] = -l[i]
		}
		carryLimbs(l)
	}
	h := len(l) - 1
	for h >= 0 && l[h] == 0 {
		h--
	}
	if h < 0 {
		return 0
	}
	// The magnitude's top 64 bits, from bit p down, plus a sticky flag
	// for anything below them. Bit positions count units of 2^-1074.
	limb := func(i int) uint64 {
		if i < 0 {
			return 0
		}
		return uint64(l[i])
	}
	n := bits.Len64(limb(h)) // 1..32
	p := limbBits*(s.lo+h) + n - 1
	below := limb(h-1)<<limbBits | limb(h-2)
	top := limb(h)<<(64-n) | below>>n
	sticky := below&(1<<n-1) != 0
	for i := h - 3; i >= 0 && !sticky; i-- {
		sticky = l[i] != 0
	}
	var f float64
	if p < 53 {
		// At most 53 significant bits, all at or above 2^-1074: the
		// value is exactly representable, subnormal or not.
		f = math.Ldexp(float64(top>>(63-p)), -1074)
	} else {
		mant := top >> 11
		half := top&(1<<10) != 0
		rest := top&(1<<10-1) != 0 || sticky
		if half && (rest || mant&1 == 1) {
			mant++ // may carry to 2^53; Ldexp takes it, or overflows to +Inf
		}
		f = math.Ldexp(float64(mant), p-52-1074)
	}
	if negative {
		f = -f
	}
	return f
}
