package plan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"optrule/internal/relation"
)

// Scatter-gather counting: the batch's deduplicated counting schedule
// is split at shard boundaries (storage-aligned segments on unsharded
// backends), scattered one-task-per-shard across a pool of workers,
// and the partial tallies are gathered and merged exactly. The merge
// is bit-exact because every tally folds exactly — integer counts,
// extremes, and target sums held in exact accumulators that round once
// at publish — so mined rules are identical to a single-node run
// REGARDLESS of worker count, task placement, retries, or which
// failure path produced each partial.
//
// Failure handling, in escalation order: a failed or timed-out task is
// retried with capped exponential backoff, re-routed away from the
// worker that just failed it, and — once its attempt budget is spent —
// counted directly by the coordinator against the underlying relation,
// so a batch always completes if the files are readable. A task whose
// direct scan also fails surfaces one clean error.

// CountTask is one shard slice's share of a batch's fused counting
// schedule: tally every group and pair over global rows [Start, End).
// Boundaries are read from Set; workers never sample. (An out-of-process
// worker transport would serialize the needs and boundaries; the
// in-process pool shares them.)
type CountTask struct {
	Start, End int
	Groups     []*GroupNeed
	Pairs      []*PairNeed
	Set        *StatsSet
}

// Partial is one task's tallies — opaque to callers, exact under
// Merge. Partials from any mix of workers, retries, and direct scans
// merge to the same totals as one serial scan.
type Partial struct {
	st *execState
}

// Merge folds other into p. Tasks must cover disjoint row ranges of
// the same schedule.
func (p *Partial) Merge(other *Partial) { p.st.merge(other.st) }

// Worker executes counting tasks. Implementations must honor ctx —
// returning promptly once it is cancelled — and must build their
// partials from the task's boundaries only, so every worker tallies
// identically. The in-process implementation is NewLocalWorker; a
// process- or network-separated worker implements the same contract
// over a transport.
type Worker interface {
	Count(ctx context.Context, task *CountTask) (*Partial, error)
}

// localWorker counts against a relation in-process.
type localWorker struct {
	rel relation.Relation
}

// NewLocalWorker returns the in-process Worker over rel: it counts each
// task with the same general counting kernel as the direct scans.
func NewLocalWorker(rel relation.Relation) Worker {
	return &localWorker{rel: rel}
}

// Count implements Worker: one fused counting scan of the task's row
// range, checking ctx between batches so cancellation and deadlines
// cut a scan short instead of running it to completion.
func (w *localWorker) Count(ctx context.Context, task *CountTask) (*Partial, error) {
	cols, numPos, boolPos := execLayout(task.Groups, task.Pairs)
	st, err := newExecState(task.Set, task.Groups, task.Pairs, numPos, boolPos)
	if err != nil {
		return nil, err
	}
	rs, ok := w.rel.(relation.RangeScanner)
	if !ok && (task.Start != 0 || task.End != w.rel.NumTuples()) {
		return nil, fmt.Errorf("plan: worker relation %T cannot scan row ranges", w.rel)
	}
	pred := commonFilterPred(task.Groups, task.Pairs)
	err = prunedOrRange(w.rel, rs, task.Start, task.End, cols, pred, st,
		func(b *relation.Batch) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			st.countBatch(b)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return &Partial{st: st}, nil
}

// ScatterStats counts the coordinator's recovery actions — one struct
// per ScatterConfig, written atomically by the worker pool. Tests and
// benchmarks read it to prove faults were actually exercised.
type ScatterStats struct {
	Tasks     atomic.Int64 // tasks scattered
	Retries   atomic.Int64 // failed attempts that were requeued
	Timeouts  atomic.Int64 // attempts cut by TaskTimeout
	Fallbacks atomic.Int64 // tasks the coordinator direct-scanned
}

// ScatterConfig enables and tunes the scatter-gather counting path.
// The zero value disables it: Workers <= 0 keeps the existing serial /
// segmented executors byte-for-byte (the no-regression baseline).
type ScatterConfig struct {
	// Workers is the worker-pool size. 0 disables scatter-gather.
	Workers int
	// NewWorker supplies worker i's implementation; nil uses the
	// in-process NewLocalWorker over the session relation. Tests inject
	// failing, stalling, or remote workers here.
	NewWorker func(i int, rel relation.Relation) Worker
	// TaskTimeout bounds one attempt of one task; a stalled worker is
	// abandoned (its goroutine drains harmlessly) and the task is
	// retried elsewhere. 0 selects the default of 30s; a negative value
	// disables the per-attempt deadline.
	TaskTimeout time.Duration
	// MaxAttempts is the per-task worker-attempt budget before the
	// coordinator falls back to a direct scan. Default 3.
	MaxAttempts int
	// Backoff is the delay before a task's first retry; each further
	// retry doubles it up to MaxBackoff. Defaults 2ms and 250ms.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Stats, when non-nil, receives the coordinator's recovery
	// counters.
	Stats *ScatterStats
}

// withDefaults fills the unset tuning knobs.
func (sc ScatterConfig) withDefaults() ScatterConfig {
	if sc.TaskTimeout == 0 {
		sc.TaskTimeout = 30 * time.Second
	}
	if sc.MaxAttempts <= 0 {
		sc.MaxAttempts = 3
	}
	if sc.Backoff <= 0 {
		sc.Backoff = 2 * time.Millisecond
	}
	if sc.MaxBackoff <= 0 {
		sc.MaxBackoff = 250 * time.Millisecond
	}
	if sc.Stats == nil {
		sc.Stats = &ScatterStats{}
	}
	return sc
}

// useScatter reports whether the scatter-gather coordinator should run
// this counting scan: workers enabled and a range-scannable, non-empty
// relation. Every schedule qualifies, target sums included, because
// every partial merges exactly.
func useScatter(rel relation.Relation, d Defaults) bool {
	if d.Scatter.Workers <= 0 {
		return false
	}
	if _, ok := rel.(relation.RangeScanner); !ok {
		return false
	}
	return rel.NumTuples() > 0
}

// scatterCuts picks the task boundaries: exact shard boundaries on a
// sharded relation (one task per non-empty shard — the scatter-gather
// unit of ROADMAP item 3, and the retry/fallback granularity), cost-
// balanced storage-aligned chunks elsewhere. On single-file v3 storage
// the chunks are priced from the zone maps under the schedule's
// pushdown predicate, so tasks covering pruned regions span many rows
// and tasks covering surviving groups stay small — the already-dynamic
// task queue then load-balances them across the pool.
func scatterCuts(rel relation.Relation, workers int, cols relation.ColumnSet, pred *relation.Predicate) []int {
	n := rel.NumTuples()
	if sr, ok := rel.(*relation.ShardedRelation); ok {
		cuts := []int{0}
		for _, s := range sr.ShardStarts()[1:] {
			if s > cuts[len(cuts)-1] { // merge empty shards
				cuts = append(cuts, s)
			}
		}
		if cuts[len(cuts)-1] != n {
			cuts = append(cuts, n)
		}
		return cuts
	}
	if workers > n {
		workers = n
	}
	chunks := relation.PlanScanChunks(rel, workers, cols, pred)
	cuts := make([]int, 0, len(chunks)+1)
	cuts = append(cuts, 0)
	for _, c := range chunks {
		cuts = append(cuts, c.End)
	}
	return cuts
}

// scatterTask is one task's scheduling state. A task is owned by
// exactly one worker goroutine at a time (the queue hands it over), so
// attempts/lastWorker/lastErr need no locking beyond the atomics used
// for the cross-worker re-route check.
type scatterTask struct {
	idx        int
	attempts   int
	lastWorker atomic.Int32
	lastErr    error
	done       bool
}

// countScatter scatters the schedule, gathers the partials, merges
// them in task order, and publishes into set.
func countScatter(ctx context.Context, rel relation.Relation, d Defaults, set *StatsSet,
	groups []*GroupNeed, pairs []*PairNeed) error {
	sc := d.Scatter.withDefaults()
	scanCols, _, _ := execLayout(groups, pairs)
	cuts := scatterCuts(rel, sc.Workers, scanCols, commonFilterPred(groups, pairs))
	nTasks := len(cuts) - 1
	if nTasks < 1 {
		return countGeneral(ctx, rel, set, groups, pairs, 1)
	}
	workers := make([]Worker, sc.Workers)
	for i := range workers {
		if sc.NewWorker != nil {
			workers[i] = sc.NewWorker(i, rel)
		} else {
			workers[i] = NewLocalWorker(rel)
		}
	}

	tasks := make([]*scatterTask, nTasks)
	partials := make([]*Partial, nTasks)
	queue := make(chan *scatterTask, nTasks) // never blocks: one slot per task
	for i := range tasks {
		t := &scatterTask{idx: i}
		t.lastWorker.Store(-1)
		tasks[i] = t
		queue <- t
	}
	sc.Stats.Tasks.Add(int64(nTasks))

	var pending atomic.Int64
	pending.Store(int64(nTasks))
	settled := make(chan struct{}) // closed when every task succeeded or exhausted its attempts
	var settleOnce sync.Once
	settle := func() {
		if pending.Add(-1) == 0 {
			settleOnce.Do(func() { close(settled) })
		}
	}

	makeTask := func(t *scatterTask) *CountTask {
		return &CountTask{Start: cuts[t.idx], End: cuts[t.idx+1], Groups: groups, Pairs: pairs, Set: set}
	}

	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-settled:
					return
				case <-ctx.Done():
					return
				case t := <-queue:
					// Re-route: don't immediately re-attempt a task on the
					// worker that just failed it while others could take it.
					if len(workers) > 1 && t.lastWorker.Load() == int32(i) {
						queue <- t // capacity nTasks: never blocks
						time.Sleep(time.Millisecond)
						continue
					}
					p, err := attemptTask(ctx, workers[i], makeTask(t), sc.TaskTimeout)
					if err == nil {
						partials[t.idx] = p
						t.done = true
						settle()
						continue
					}
					if ctx.Err() != nil {
						return
					}
					if errors.Is(err, context.DeadlineExceeded) {
						sc.Stats.Timeouts.Add(1)
					}
					t.lastWorker.Store(int32(i))
					t.attempts++
					t.lastErr = err
					if t.attempts >= sc.MaxAttempts {
						settle() // direct-scan fallback picks it up
						continue
					}
					sc.Stats.Retries.Add(1)
					backoff := sc.Backoff << (t.attempts - 1)
					if backoff > sc.MaxBackoff {
						backoff = sc.MaxBackoff
					}
					time.Sleep(backoff)
					queue <- t
				}
			}
		}(i)
	}

	select {
	case <-settled:
	case <-ctx.Done():
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("plan: counting: %w", err)
	}

	// Last resort: the coordinator counts exhausted tasks itself,
	// straight off the relation — the batch completes whenever the
	// underlying files are readable, no matter how broken the pool is.
	direct := NewLocalWorker(rel)
	for _, t := range tasks {
		if t.done {
			continue
		}
		sc.Stats.Fallbacks.Add(1)
		p, err := direct.Count(ctx, makeTask(t))
		if err != nil {
			return fmt.Errorf("plan: counting rows [%d,%d): %w (after %d worker attempts, last: %v)",
				cuts[t.idx], cuts[t.idx+1], err, t.attempts, t.lastErr)
		}
		partials[t.idx] = p
	}

	// Gather: merge in fixed task order. Exact folds make the result
	// independent of which worker produced which partial.
	total := partials[0]
	for _, p := range partials[1:] {
		total.Merge(p)
	}
	total.st.publish(set)
	return nil
}

// attemptTask runs one attempt of one task under the per-attempt
// deadline. A worker that outlives its deadline is abandoned: its
// goroutine finishes into a buffered channel and is garbage collected,
// and its partial — built on private state — is discarded, never
// merged.
func attemptTask(ctx context.Context, w Worker, task *CountTask, timeout time.Duration) (*Partial, error) {
	actx := ctx
	cancel := func() {}
	if timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	type result struct {
		p   *Partial
		err error
	}
	ch := make(chan result, 1)
	go func() {
		p, err := w.Count(actx, task)
		ch <- result{p, err}
	}()
	select {
	case r := <-ch:
		return r.p, r.err
	case <-actx.Done():
		return nil, actx.Err()
	}
}
