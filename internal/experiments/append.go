package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"optrule/internal/datagen"
	"optrule/internal/miner"
	"optrule/internal/relation"
)

// The append experiment: what does delta statistics merge buy over
// rebuilding the cache? A warm session whose relation grows by Δ rows
// folds tail-only partial statistics into its cache (one counting
// scan over the Δ rows, no re-sampling) as long as the accumulated
// growth stays inside the §3.4 bucket-error budget — so ingest costs
// O(Δ), not the O(n) of a cold two-scan rebuild. Past the budget the
// session re-samples boundaries and recounts on demand, converging to
// cold-session behavior. Each step hard-fails unless the warm
// session's answers are byte-identical to a bounds-matched cold
// rebuild, and within-budget steps hard-fail unless the whole
// append-and-requery cycle reads ≤ 5% of the cold rebuild's counted
// bytes.

// AppendResult is the append experiment's structured result.
type AppendResult struct {
	BaseTuples int
	Queries    int
	GoMaxProcs int
	Steps      []AppendStep
}

// AppendStep measures one append: Δ rows (Fraction of the BASE size,
// cumulative across steps) land in new shard files, the warm session
// refreshes, and the previously-cached mixed batch re-runs.
type AppendStep struct {
	// Fraction of the base tuple count appended in this step.
	Fraction     float64
	AppendedRows int
	TuplesAfter  int
	// Delta is append + RefreshFromStorage + re-running the batch on
	// the warm session; Cold is a fresh session answering the same
	// batch on the grown relation with a full two-scan rebuild.
	DeltaSeconds float64
	DeltaBytes   int64
	ColdSeconds  float64
	ColdBytes    int64
	// Telemetry from the refresh: tail rows counted, cache entries
	// folded in place, and boundary sets re-sampled because the
	// accumulated growth left the bucket-error budget.
	TailRows      int64
	EntriesFolded int
	Resamples     int
}

// appendQueries is the batch workload minus the average operator:
// the cache holds target sums rounded, and adding two rounded sums can
// miss the exact total, so the delta path deliberately strips them and
// recounts on demand (over the full relation) rather than fold them —
// a different, correctness-driven cost model that would drown the
// O(Δ) signal the experiment measures. Everything else folds
// integer-exactly.
func appendQueries() []miner.Query {
	var out []miner.Query
	for _, q := range batchQueries() {
		if q.Op == miner.OpAverage {
			continue
		}
		out = append(out, q)
	}
	return out
}

// Append measures delta ingest on an n-tuple sharded v2 bank
// relation: for each fraction (of the base size, applied cumulatively
// to one relation), append Δ rows and compare the warm session's
// refresh-and-requery against a cold rebuild.
func Append(n int, fractions []float64, seed int64) (AppendResult, error) {
	res := AppendResult{BaseTuples: n, GoMaxProcs: runtime.GOMAXPROCS(0)}
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp("", "optrule-append")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	manifest := filepath.Join(dir, "bank.oprs")
	if err := datagen.WriteSharded(manifest, bank, n, seed, 4, relation.DiskFormatV2); err != nil {
		return res, err
	}
	rel, err := relation.OpenSharded(manifest)
	if err != nil {
		return res, err
	}
	defer rel.Close()

	cfg := miner.Config{Buckets: 1000, Seed: seed}
	queries := appendQueries()
	res.Queries = len(queries)

	// Warm the session: the batch pays its two scans once, up front.
	warm, err := miner.NewSession(rel, cfg)
	if err != nil {
		return res, err
	}
	if err := runAppendBatch(warm, queries); err != nil {
		return res, fmt.Errorf("warming batch: %w", err)
	}

	grown := n // rows generated so far; the stream offset for the next tail
	for _, f := range fractions {
		delta := int(f * float64(n))
		if delta < 1 {
			delta = 1
		}
		// The prefix property: rows [grown, grown+delta) of the seed's
		// stream are exactly the rows the relation does not hold yet.
		tail, err := datagen.MaterializeRange(bank, seed, grown, delta)
		if err != nil {
			return res, err
		}

		rel.ResetBytesRead()
		start := time.Now()
		if _, err := relation.AppendToSharded(manifest, tail, relation.AppendOptions{}); err != nil {
			return res, err
		}
		stats, err := warm.RefreshFromStorage()
		if err != nil {
			return res, err
		}
		deltaAnswers, err := warm.ExecuteBatch(queries)
		if err != nil {
			return res, err
		}
		step := AppendStep{
			Fraction:      f,
			AppendedRows:  delta,
			TuplesAfter:   rel.NumTuples(),
			DeltaSeconds:  time.Since(start).Seconds(),
			DeltaBytes:    rel.BytesRead(),
			TailRows:      stats.RowsScanned,
			EntriesFolded: stats.EntriesFolded,
			Resamples:     stats.Resamples,
		}
		grown += delta

		// Cold rebuild on the grown relation: fresh session, full
		// sampling + counting scans.
		rel.ResetBytesRead()
		start = time.Now()
		cold, err := miner.NewSession(rel, cfg)
		if err != nil {
			return res, err
		}
		coldAnswers, err := cold.ExecuteBatch(queries)
		if err != nil {
			return res, err
		}
		step.ColdSeconds = time.Since(start).Seconds()
		step.ColdBytes = rel.BytesRead()

		// Identity hard-fail: with the warm session's boundaries, a
		// fresh rebuild must reproduce its answers bit for bit — a
		// wrong-but-cheap fold must not publish a bogus win. (The plain
		// cold session above samples the grown relation, so its
		// boundaries — and rules — may legitimately differ by a hair
		// while growth is inside the sampling error budget.)
		control, err := miner.NewSession(rel, cfg)
		if err != nil {
			return res, err
		}
		control.StatsCache().CopyBoundsFrom(warm.StatsCache())
		controlAnswers, err := control.ExecuteBatch(queries)
		if err != nil {
			return res, err
		}
		if !answersEqual(deltaAnswers, controlAnswers) {
			return res, fmt.Errorf("fraction %g: delta-merged answers deviate from cold rebuild", f)
		}
		for i, a := range coldAnswers {
			if a.Err != nil {
				return res, fmt.Errorf("fraction %g: cold query %d: %w", f, i, a.Err)
			}
		}

		// The acceptance ceiling: a within-budget append-and-requery
		// cycle must read at most 5% of what the cold rebuild reads.
		if step.Resamples == 0 && step.DeltaBytes*20 > step.ColdBytes {
			return res, fmt.Errorf("fraction %g: delta path read %d bytes, over 5%% of cold rebuild's %d",
				f, step.DeltaBytes, step.ColdBytes)
		}
		res.Steps = append(res.Steps, step)
	}
	return res, nil
}

// runAppendBatch executes the batch and fails on any per-query error.
func runAppendBatch(s *miner.Session, queries []miner.Query) error {
	answers, err := s.ExecuteBatch(queries)
	if err != nil {
		return err
	}
	for i, a := range answers {
		if a.Err != nil {
			return fmt.Errorf("query %d (%s): %w", i, a.Query.Op, a.Err)
		}
	}
	return nil
}

// Print writes the comparison.
func (r AppendResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Incremental append: %d-query batch over %d base tuples (GOMAXPROCS=%d)\n",
		r.Queries, r.BaseTuples, r.GoMaxProcs)
	fmt.Fprintf(w, "%9s %10s  %12s %14s  %12s %14s  %9s %7s %9s\n",
		"fraction", "rows", "delta s", "delta bytes", "cold s", "cold bytes", "tail rows", "folds", "resamples")
	for _, s := range r.Steps {
		fmt.Fprintf(w, "%8.2f%% %10d  %12.3f %14d  %12.3f %14d  %9d %7d %9d\n",
			s.Fraction*100, s.AppendedRows, s.DeltaSeconds, s.DeltaBytes,
			s.ColdSeconds, s.ColdBytes, s.TailRows, s.EntriesFolded, s.Resamples)
	}
	for _, s := range r.Steps {
		if s.Resamples == 0 && s.ColdBytes > 0 {
			fmt.Fprintf(w, "fraction %g: delta ingest read %.2f%% of cold rebuild bytes\n",
				s.Fraction, 100*float64(s.DeltaBytes)/float64(s.ColdBytes))
		}
	}
}
