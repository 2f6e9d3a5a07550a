package relation

import (
	"sync"
	"testing"
)

// TestCountingWrappersConcurrentScans pins the counting wrappers under
// concurrent scans, the way a row-chunked counting scan drives them:
// parallel ScanRange calls through RangeCountingRelation and parallel
// Scans through CountingRelation must total every scan, row, and range
// exactly. Run with -race, which flags any unguarded counter.
func TestCountingWrappersConcurrentScans(t *testing.T) {
	const n, workers, perWorker, span = 4000, 8, 5, 100
	mem := MustNewMemoryRelation(Schema{{Name: "X", Kind: Numeric}})
	for i := 0; i < n; i++ {
		mem.MustAppend([]float64{float64(i)}, nil)
	}
	rc := &RangeCountingRelation{R: mem}
	c := &CountingRelation{R: mem}
	cols := ColumnSet{Numeric: []int{0}}
	none := func(*Batch) error { return nil }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				start := (w*perWorker + k) * span
				if err := rc.ScanRange(start, start+span, cols, none); err != nil {
					t.Error(err)
				}
				if err := c.Scan(cols, none); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	const scans = workers * perWorker
	if rc.Scans != scans || rc.Rows != scans*span || len(rc.Ranges) != scans {
		t.Errorf("RangeCountingRelation: %d scans, %d rows, %d ranges; want %d, %d, %d",
			rc.Scans, rc.Rows, len(rc.Ranges), scans, scans*span, scans)
	}
	covered := make([]bool, scans)
	for _, r := range rc.Ranges {
		if r[1]-r[0] != span || r[0]%span != 0 || covered[r[0]/span] {
			t.Fatalf("range %v is not one of the issued ranges, or recorded twice", r)
		}
		covered[r[0]/span] = true
	}
	if got := rc.MinScanned(); got != 0 {
		t.Errorf("MinScanned = %d, want 0", got)
	}
	if c.Scans != scans || c.Rows != scans*n {
		t.Errorf("CountingRelation: %d scans, %d rows; want %d, %d", c.Scans, c.Rows, scans, scans*n)
	}
}
