package miner

import (
	"fmt"
	"math"

	"optrule/internal/relation"
)

// Verification rescans the relation to recompute a mined rule's
// statistics exactly. Mining is bucket-approximate (Section 3.4 bounds
// the error); verification is exact, so production deployments can
// report audited numbers next to each discovered rule.

// Verification holds the exact statistics of a rule's range. Like
// mining, it counts only tuples whose numeric attribute is not NaN: a
// missing value belongs to no range, so it enters neither the range
// nor the totals that support and baseline are taken over.
type Verification struct {
	// Count is the exact number of (condition-satisfying) tuples with
	// the numeric attribute in [Low, High].
	Count int
	// Support is Count over Total.
	Support float64
	// Confidence is the exact objective rate within the range.
	Confidence float64
	// Baseline is the exact objective rate over the Total tuples.
	Baseline float64
	// Total is the number of condition-satisfying tuples scanned whose
	// numeric attribute is not NaN.
	Total int
}

// Verify recomputes the exact support and confidence of rule over rel
// with one sequential scan. The rule's Condition conjuncts are honoured
// when conds carries the same conditions used at mining time (Verify
// cannot parse them back out of the rule's display string).
func Verify(rel relation.Relation, rule Rule, conds []Condition) (Verification, error) {
	s := rel.Schema()
	numAttr := s.Index(rule.Numeric)
	if numAttr < 0 || s[numAttr].Kind != relation.Numeric {
		return Verification{}, fmt.Errorf("miner: rule attribute %q not in schema", rule.Numeric)
	}
	objAttr := s.Index(rule.Objective)
	if objAttr < 0 || s[objAttr].Kind != relation.Boolean {
		return Verification{}, fmt.Errorf("miner: rule objective %q not in schema", rule.Objective)
	}
	cols := relation.ColumnSet{Numeric: []int{numAttr}, Bool: []int{objAttr}}
	filterAt := make([]int, len(conds))
	filterWant := make([]bool, len(conds))
	for i, c := range conds {
		a := s.Index(c.Attr)
		if a < 0 || s[a].Kind != relation.Boolean {
			return Verification{}, fmt.Errorf("miner: condition attribute %q not Boolean", c.Attr)
		}
		filterAt[i] = len(cols.Bool)
		cols.Bool = append(cols.Bool, a)
		filterWant[i] = c.Value
	}

	var v Verification
	var inHits, allHits int
	err := rel.Scan(cols, func(b *relation.Batch) error {
		for row := 0; row < b.Len; row++ {
			pass := true
			for i := range filterAt {
				if b.Bool[filterAt[i]][row] != filterWant[i] {
					pass = false
					break
				}
			}
			x := b.Numeric[0][row]
			if !pass || math.IsNaN(x) {
				continue
			}
			v.Total++
			hit := b.Bool[0][row] == rule.ObjectiveValue
			if hit {
				allHits++
			}
			if x >= rule.Low && x <= rule.High {
				v.Count++
				if hit {
					inHits++
				}
			}
		}
		return nil
	})
	if err != nil {
		return Verification{}, err
	}
	if v.Total == 0 {
		return Verification{}, fmt.Errorf("miner: no tuples with a %s value satisfy the rule's conditions", rule.Numeric)
	}
	v.Support = float64(v.Count) / float64(v.Total)
	v.Baseline = float64(allHits) / float64(v.Total)
	if v.Count > 0 {
		v.Confidence = float64(inHits) / float64(v.Count)
	}
	return v, nil
}
