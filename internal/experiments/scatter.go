package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"optrule/internal/datagen"
	"optrule/internal/miner"
	"optrule/internal/relation"
)

// ScatterRow is one point of the worker-count sweep: the full fused
// MineAll workload with the counting scan scattered one-task-per-shard
// across a pool of Workers (0 = the classic serial/segmented executor,
// the no-regression baseline). Identical rules at every worker count
// is the scatter-gather contract — the merge is integer-exact, so
// placement, retries, and worker count must never change the answer.
type ScatterRow struct {
	Workers int
	Seconds float64
	Bytes   int64
	Rules   int
}

// ScatterFaultRun is the recovery measurement: the same workload with
// every pool worker reading through the deterministic fault harness at
// a 10% per-scan failure probability, repeated until faults actually
// fire (a handful of draws at 10% can all come up healthy). The
// recovery counters prove the failure machinery actually ran; the
// rule-identity check on every repetition proves it cost nothing in
// correctness.
type ScatterFaultRun struct {
	FailProb  float64
	Workers   int
	Runs      int
	Seconds   float64 // total across runs
	Tasks     int64
	Retries   int64
	Timeouts  int64
	Fallbacks int64
	Injected  int64
	Rules     int
}

// ScatterResult is the scatter-gather executor experiment over a
// sharded relation.
type ScatterResult struct {
	Tuples     int
	Shards     int
	GoMaxProcs int
	Rows       []ScatterRow
	FaultRun   ScatterFaultRun
}

// Scatter writes an n-tuple bank relation as a sharded v2 layout, then
// times MineAll at each worker count — hard-failing on any rule
// deviation from the zero-worker baseline — and finishes with a
// faulted run whose per-worker scans fail 10% of the time.
func Scatter(n int, shards int, workerCounts []int, seed int64) (ScatterResult, error) {
	res := ScatterResult{Tuples: n, Shards: shards, GoMaxProcs: runtime.GOMAXPROCS(0)}
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp("", "optrule-scatter")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	manifest := filepath.Join(dir, "bank.oprs")
	if err := datagen.WriteSharded(manifest, bank, n, seed, shards, relation.DiskFormatV2); err != nil {
		return res, err
	}
	sr, err := relation.OpenSharded(manifest)
	if err != nil {
		return res, err
	}
	defer sr.Close()

	base := miner.Config{Buckets: 1000, Seed: seed}
	var want *miner.Result
	for _, workers := range workerCounts {
		cfg := base
		cfg.Scatter = miner.ScatterConfig{Workers: workers}
		sr.ResetBytesRead()
		start := time.Now()
		got, err := miner.MineAll(sr, cfg)
		secs := time.Since(start).Seconds()
		if err != nil {
			return res, fmt.Errorf("workers=%d: %w", workers, err)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got.Rules, want.Rules) {
			return res, fmt.Errorf("workers=%d: scattered rules differ from the serial baseline", workers)
		}
		res.Rows = append(res.Rows, ScatterRow{
			Workers: workers, Seconds: secs, Bytes: sr.BytesRead(), Rules: len(got.Rules),
		})
	}

	// Faulted runs: every worker reads through one shared harness that
	// kills 10% of scans mid-task. The coordinator's retries draw fresh
	// scan ordinals from the deterministic per-ordinal stream, so each
	// run always terminates, and any task whose attempts are exhausted
	// falls back to a direct scan of the clean relation. One run may
	// legitimately draw no faults (8 scans at 10%), so repeat until the
	// harness has actually fired — capped so a pathological seed cannot
	// loop forever.
	const failProb = 0.10
	workers := workerCounts[len(workerCounts)-1]
	if workers == 0 {
		workers = 4
	}
	fr := relation.NewFaultRelation(sr, relation.FaultConfig{
		Seed: seed, FailProb: failProb, FailAfterRows: n / (2 * shards),
	})
	var stats miner.ScatterStats
	cfg := base
	cfg.Scatter = miner.ScatterConfig{
		Workers: workers,
		NewWorker: func(i int, rel relation.Relation) miner.Worker {
			return miner.NewLocalWorker(fr)
		},
		Stats: &stats,
	}
	fault := ScatterFaultRun{FailProb: failProb, Workers: workers}
	for fault.Runs = 0; fault.Runs < 20; {
		start := time.Now()
		got, err := miner.MineAll(sr, cfg)
		fault.Seconds += time.Since(start).Seconds()
		fault.Runs++
		if err != nil {
			return res, fmt.Errorf("faulted run %d: %w", fault.Runs, err)
		}
		if !reflect.DeepEqual(got.Rules, want.Rules) {
			return res, fmt.Errorf("faulted run %d: rules differ from the healthy baseline", fault.Runs)
		}
		fault.Rules = len(got.Rules)
		if fr.Injected() > 0 {
			break
		}
	}
	if fr.Injected() == 0 {
		return res, fmt.Errorf("fault harness never fired in %d runs at %.0f%%", fault.Runs, failProb*100)
	}
	fault.Tasks = stats.Tasks.Load()
	fault.Retries = stats.Retries.Load()
	fault.Timeouts = stats.Timeouts.Load()
	fault.Fallbacks = stats.Fallbacks.Load()
	fault.Injected = fr.Injected()
	res.FaultRun = fault
	return res, nil
}

// Print writes the scatter-gather sweep.
func (r ScatterResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Scatter-gather executor: MineAll over %d bank tuples in %d shards, GOMAXPROCS=%d\n",
		r.Tuples, r.Shards, r.GoMaxProcs)
	fmt.Fprintf(w, "%8s  %10s  %14s  %6s\n", "workers", "time (s)", "bytes", "rules")
	for _, row := range r.Rows {
		name := fmt.Sprintf("%d", row.Workers)
		if row.Workers == 0 {
			name = "serial"
		}
		fmt.Fprintf(w, "%8s  %10.3f  %14d  %6d\n", name, row.Seconds, row.Bytes, row.Rules)
	}
	f := r.FaultRun
	fmt.Fprintf(w, "faulted: %.0f%% scan failure, %d workers, %d run(s): %.3fs, %d tasks, %d retries, %d timeouts, %d fallbacks, %d faults injected, rules identical\n",
		f.FailProb*100, f.Workers, f.Runs, f.Seconds, f.Tasks, f.Retries, f.Timeouts, f.Fallbacks, f.Injected)
}
