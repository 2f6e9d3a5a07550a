package miner

import (
	"fmt"
	"io"
	"strings"

	"optrule/internal/relation"
)

// Profile is the per-bucket confidence landscape of one (numeric,
// Boolean) attribute pair — the picture a user looks at to judge why an
// optimized rule selected the range it did.
type Profile struct {
	Numeric, Objective string
	ObjectiveValue     bool
	// Buckets are in driver order; Lo/Hi are observed value extremes,
	// Support the tuple count, Conf the objective rate within the bucket.
	Buckets []ProfileBucket
	// Overall is the objective rate over all tuples.
	Overall float64
	N       int
}

// ProfileBucket is one bucket of a Profile.
type ProfileBucket struct {
	Lo, Hi  float64
	Support int
	Conf    float64
}

// BuildProfile computes a Profile with the given number of buckets
// (coarser than mining resolution, intended for display). It is a
// session query: a throwaway Session samples and counts the driver in
// its usual two scans.
func BuildProfile(rel relation.Relation, numeric, objective string, objectiveValue bool,
	buckets int, cfg Config) (*Profile, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("miner: profile bucket count %d must be positive", buckets)
	}
	s, err := NewSession(rel, cfg)
	if err != nil {
		return nil, err
	}
	return s.profile(numeric, objective, objectiveValue, buckets)
}

// profile materializes the statistic a top-k query over (numeric,
// objective) reads — the driver's sampled buckets, never promoted to
// finest buckets, with one objective row and the value extremes — and
// renders it bucket by bucket instead of extracting ranges.
func (s *Session) profile(numeric, objective string, objectiveValue bool, buckets int) (*Profile, error) {
	q := Query{Op: OpTopK, Numeric: numeric, Objective: objective,
		ObjectiveValue: objectiveValue, Buckets: buckets, K: 1}
	r, set, err := s.materialize(q)
	if err != nil {
		return nil, err
	}
	counts, err := set.Groups[r.Keys[0]].Counts(r.Objs, nil, true)
	if err != nil {
		return nil, err
	}
	compact, _ := counts.Compact()
	p := &Profile{
		Numeric:        numeric,
		Objective:      objective,
		ObjectiveValue: objectiveValue,
		N:              compact.N,
	}
	hits := 0
	for i := 0; i < compact.M; i++ {
		hits += compact.V[0][i]
		p.Buckets = append(p.Buckets, ProfileBucket{
			Lo:      compact.MinVal[i],
			Hi:      compact.MaxVal[i],
			Support: compact.U[i],
			Conf:    float64(compact.V[0][i]) / float64(compact.U[i]),
		})
	}
	p.Overall = float64(hits) / float64(compact.N)
	return p, nil
}

// Render writes an ASCII bar chart of the profile, marking buckets
// covered by the optional highlight range [lo, hi] with '◆'.
func (p *Profile) Render(w io.Writer, highlightLo, highlightHi float64, highlight bool) {
	val := "yes"
	if !p.ObjectiveValue {
		val = "no"
	}
	fmt.Fprintf(w, "confidence of (%s=%s) by %s bucket (overall %.1f%%, %d tuples)\n",
		p.Objective, val, p.Numeric, 100*p.Overall, p.N)
	const width = 40
	for _, b := range p.Buckets {
		bar := int(b.Conf*width + 0.5)
		if bar > width {
			bar = width
		}
		mark := " "
		if highlight && b.Lo >= highlightLo && b.Hi <= highlightHi {
			mark = "◆"
		}
		fmt.Fprintf(w, "%s [%12.5g, %12.5g] %6.1f%% |%-*s| n=%d\n",
			mark, b.Lo, b.Hi, 100*b.Conf, width, strings.Repeat("█", bar), b.Support)
	}
}
