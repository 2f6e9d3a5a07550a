package main

import (
	"fmt"
	"sort"
	"time"
)

// loopStats accumulates what the timed loop observed.
type loopStats struct {
	// batchMs is the latency of each query op (for ingest-filtered, the
	// read op); cycleMs of each whole closed-loop cycle; ingestMs of
	// each ingest op.
	batchMs, cycleMs, ingestMs []float64
	batchBytes                 []int64
	// queries counts queries answered; busy is the time spent in ops,
	// so queries/busy is the throughput of the one closed-loop client
	// without the out-of-loop resets and checks.
	queries int
	busy    time.Duration
}

// gate counts attempted and failed ops. An op fails when it returns an
// error, carries an Answer.Err, or misses a correctness check.
type gate struct {
	attempted, failed int
	failures          []string
}

// maxFailures bounds the failure messages kept for the report.
const maxFailures = 20

// op records one attempted op; a non-nil err fails it.
func (g *gate) op(err error) {
	g.attempted++
	if err == nil {
		return
	}
	g.failed++
	if len(g.failures) < maxFailures {
		g.failures = append(g.failures, err.Error())
	}
}

func (g *gate) failedRatio() float64 {
	if g.attempted == 0 {
		return 0
	}
	return float64(g.failed) / float64(g.attempted)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianInt(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs with at least tailBeyond
// samples beyond it — the (tailBeyond+1)-th largest sample — and that
// percentile. With too few samples it returns the maximum, labelled
// as the 100th percentile.
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], fmt.Sprintf("p100 of %d samples", n)
	}
	k := n - tailBeyond - 1
	return s[k], fmt.Sprintf("p%.1f of %d samples", 100*float64(k+1)/float64(n), n)
}
