package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"optrule/internal/datagen"
	"optrule/internal/miner"
	"optrule/internal/plan"
	"optrule/internal/relation"
)

// Row counts at scale 1, and the ingest shape.
const (
	coldRows     = 2_000_000
	ingestRows   = 1_000_000
	ingestShards = 4
	// deltaShare is the share of the base rows one ingest op appends.
	deltaShare = 0.005
	// epochCycles is how many ingest cycles run before the relation is
	// restored to its base rows, so every run sees the same sequence of
	// relation states however fast the program is.
	epochCycles = 24
	// minRows keeps scaled-down smoke runs meaningful.
	minRows = 20_000
)

// workload is one named load shape.
type workload interface {
	// setup generates the inputs under dir, primes what the loop
	// reuses and computes the reference answers.
	setup(dir string) error
	// config describes the workload for the report.
	config() map[string]any
	// cycle runs one closed-loop cycle: it times the ops, records them
	// in l and checks each against the references in g. A returned
	// error is the benchmark's own failure and aborts the run.
	cycle(l *loopStats, g *gate) error
	// settled reports whether the loop may stop after the cycle just
	// run: a workload with state that evolves over cycles stops only
	// where that state is the same in every run.
	settled() bool
	// finish runs the end-of-run checks and reads the end state.
	finish(g *gate) (endState, error)
	// target describes the op for the traced run's layer probes.
	target() *target
	close()
}

// endState is what the run leaves behind.
type endState struct {
	storedRatio float64
	cacheBytes  int64
}

var workloads = map[string]func(options) workload{
	"cold-batch":      func(o options) workload { return &coldBatchWL{o: o} },
	"warm-requery":    func(o options) workload { return &warmRequeryWL{o: o} },
	"ingest-filtered": func(o options) workload { return &ingestWL{o: o} },
}

func workloadList() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func scaled(o options, rows int) int {
	n := int(float64(rows) * o.scale)
	if n < minRows {
		n = minRows
	}
	return n
}

// storage is what the benchmark needs of a relation: pruned range
// scans and counted bytes. Single files and sharded relations both
// qualify.
type storage interface {
	relation.PrunedRangeScanner
	BytesRead() int64
	ResetBytesRead()
}

func bank() *datagen.Bank {
	b, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		panic(err) // the default configuration is valid
	}
	return b
}

// sessionConfig is the library's default configuration; only the
// seed is the workload's.
func sessionConfig(seed int64) miner.Config { return miner.Config{Seed: seed} }

// storedRatio is the bytes of every file under dir over the user's
// bytes: 8 per numeric cell and 1 per Boolean cell.
func storedRatio(dir string, schema relation.Schema, rows int) (float64, error) {
	var stored int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		stored += info.Size()
		return nil
	})
	if err != nil {
		return 0, err
	}
	user := int64(rows) * int64(8*len(schema.NumericIndices())+len(schema.BooleanIndices()))
	return float64(stored) / float64(user), nil
}

// ---------------------------------------------------------------------
// cold-batch: a new session per op over a 2M-row v2 file.

type coldBatchWL struct {
	o    options
	rows int
	dir  string
	rel  *relation.DiskRelation

	batch    []miner.Query
	ref      []miner.Answer
	refBytes int64
	refCheck error
	last     *miner.Session
}

func (w *coldBatchWL) config() map[string]any {
	return map[string]any{"rows": w.rows, "format": "v2 single file", "delta_rows": 0,
		"queries_per_op": len(coldBatch()), "session_cache": "library default"}
}

func (w *coldBatchWL) setup(dir string) error {
	w.rows, w.dir, w.batch = scaled(w.o, coldRows), dir, coldBatch()
	path := filepath.Join(dir, "bank.opr")
	if err := datagen.WriteDisk(path, bank(), w.rows, w.o.seed); err != nil {
		return err
	}
	rel, err := relation.OpenDisk(path)
	if err != nil {
		return err
	}
	w.rel = rel
	s, err := miner.NewSession(rel, sessionConfig(w.o.seed))
	if err != nil {
		return err
	}
	rel.ResetBytesRead()
	ref, err := s.ExecuteBatch(w.batch)
	if err != nil {
		return fmt.Errorf("reference batch: %w", err)
	}
	w.ref, w.refBytes, w.last = ref, rel.BytesRead(), s
	w.refCheck = answerErr(ref)
	if w.refCheck == nil {
		w.refCheck = recoversPlanted(ref[0].Rules)
	}
	return nil
}

func (w *coldBatchWL) cycle(l *loopStats, g *gate) error {
	w.rel.ResetBytesRead()
	start := time.Now()
	s, err := miner.NewSession(w.rel, sessionConfig(w.o.seed))
	var answers []miner.Answer
	if err == nil {
		answers, err = s.ExecuteBatch(w.batch)
	}
	d := time.Since(start)
	bytes := w.rel.BytesRead()
	l.batchMs = append(l.batchMs, ms(d))
	l.cycleMs = append(l.cycleMs, ms(d))
	l.batchBytes = append(l.batchBytes, bytes)
	l.queries += len(w.batch)
	l.busy += d
	if err == nil {
		err = answerErr(answers)
	}
	if err == nil {
		err = sameAnswers(answers, w.ref)
	}
	if err == nil && bytes != w.refBytes {
		err = fmt.Errorf("read %d bytes, the reference op read %d", bytes, w.refBytes)
	}
	g.op(err)
	if s != nil {
		w.last = s
	}
	return nil
}

func (w *coldBatchWL) settled() bool { return true }

func (w *coldBatchWL) finish(g *gate) (endState, error) {
	g.op(w.refCheck)
	ratio, err := storedRatio(w.dir, w.rel.Schema(), w.rel.NumTuples())
	return endState{storedRatio: ratio, cacheBytes: w.last.CacheStats().Bytes}, err
}

func (w *coldBatchWL) target() *target {
	return &target{rel: w.rel, d: sessionDefaults(w.o.seed), opBatch: w.batch,
		cold: true, cache: w.last.StatsCache(), pairBatch: w.batch}
}

func (w *coldBatchWL) close() {
	if w.rel != nil {
		w.rel.Close()
	}
}

// ---------------------------------------------------------------------
// warm-requery: one primed session re-answers seeded variants.

type warmRequeryWL struct {
	o    options
	rows int
	dir  string
	rel  *relation.DiskRelation

	classes  [][]miner.Query
	ref      [][]miner.Answer // per class, per variant
	refCheck error
	warm     *miner.Session
	misses   int64
	rng      *rand.Rand
	last     []miner.Query // the last op's batch
}

func (w *warmRequeryWL) config() map[string]any {
	return map[string]any{"rows": w.rows, "format": "v2 single file", "delta_rows": 0,
		"queries_per_op": len(warmClasses()), "variants": 3 * len(warmClasses()),
		"session_cache": "library default"}
}

// flatten lists every variant, class by class.
func flatten(classes [][]miner.Query) []miner.Query {
	var out []miner.Query
	for _, c := range classes {
		out = append(out, c...)
	}
	return out
}

func (w *warmRequeryWL) setup(dir string) error {
	w.rows, w.dir, w.classes = scaled(w.o, coldRows), dir, warmClasses()
	w.rng = rand.New(rand.NewSource(w.o.seed))
	path := filepath.Join(dir, "bank.opr")
	if err := datagen.WriteDisk(path, bank(), w.rows, w.o.seed); err != nil {
		return err
	}
	rel, err := relation.OpenDisk(path)
	if err != nil {
		return err
	}
	w.rel = rel
	all := flatten(w.classes)

	// The reference comes from a session of its own, cold.
	refSession, err := miner.NewSession(rel, sessionConfig(w.o.seed))
	if err != nil {
		return err
	}
	ref, err := refSession.ExecuteBatch(all)
	if err != nil {
		return fmt.Errorf("reference batch: %w", err)
	}
	w.refCheck = answerErr(ref)
	if w.refCheck == nil {
		w.refCheck = recoversPlanted(ref[len(w.classes[0])+len(w.classes[1])].Rules)
	}
	for _, c := range w.classes {
		w.ref = append(w.ref, ref[:len(c)])
		ref = ref[len(c):]
	}

	w.warm, err = miner.NewSession(rel, sessionConfig(w.o.seed))
	if err != nil {
		return err
	}
	prime, err := w.warm.ExecuteBatch(all)
	if err != nil {
		return fmt.Errorf("priming batch: %w", err)
	}
	if err := answerErr(prime); err != nil && w.refCheck == nil {
		w.refCheck = fmt.Errorf("priming: %w", err)
	}
	w.misses = w.warm.CacheStats().Misses
	return nil
}

func (w *warmRequeryWL) cycle(l *loopStats, g *gate) error {
	picks := pickVariants(w.rng, w.classes)
	batch := make([]miner.Query, len(picks))
	for c, v := range picks {
		batch[c] = w.classes[c][v]
	}
	w.last = batch
	w.rel.ResetBytesRead()
	start := time.Now()
	answers, err := w.warm.ExecuteBatch(batch)
	d := time.Since(start)
	bytes := w.rel.BytesRead()
	l.batchMs = append(l.batchMs, ms(d))
	l.cycleMs = append(l.cycleMs, ms(d))
	l.batchBytes = append(l.batchBytes, bytes)
	l.queries += len(batch)
	l.busy += d
	if err == nil {
		err = answerErr(answers)
	}
	for c := 0; err == nil && c < len(picks); c++ {
		err = sameAnswers(answers[c:c+1], w.ref[c][picks[c]:picks[c]+1])
	}
	if err == nil && bytes != 0 {
		err = fmt.Errorf("a cached re-query read %d bytes", bytes)
	}
	if misses := w.warm.CacheStats().Misses; err == nil && misses != w.misses {
		err = fmt.Errorf("cache misses grew from %d to %d after priming", w.misses, misses)
	}
	g.op(err)
	return nil
}

func (w *warmRequeryWL) settled() bool { return true }

func (w *warmRequeryWL) finish(g *gate) (endState, error) {
	g.op(w.refCheck)
	ratio, err := storedRatio(w.dir, w.rel.Schema(), w.rel.NumTuples())
	return endState{storedRatio: ratio, cacheBytes: w.warm.CacheStats().Bytes}, err
}

func (w *warmRequeryWL) target() *target {
	batch := w.last
	if batch == nil {
		batch = flatten(w.classes)
	}
	return &target{rel: w.rel, d: sessionDefaults(w.o.seed), opBatch: batch,
		cache: w.warm.StatsCache(), pairBatch: flatten(w.classes)}
}

func (w *warmRequeryWL) close() {
	if w.rel != nil {
		w.rel.Close()
	}
}

// ---------------------------------------------------------------------
// ingest-filtered: appends beside filtered reads on a clustered,
// sharded v3 relation.

type ingestWL struct {
	o     options
	rows  int
	delta int
	dir   string

	manifest  string
	baseFiles map[string]bool
	baseMan   []byte
	tails     []*relation.MemoryRelation

	rel     *relation.ShardedRelation
	warm    *miner.Session
	warmAns []miner.Answer
	reader  *miner.Session
	epochAt int // cycles run in the current epoch
}

func (w *ingestWL) config() map[string]any {
	return map[string]any{"rows": w.rows, "format": "v3, clustered by " + filterAttr,
		"shards": ingestShards, "delta_rows": w.delta, "append_format": "library default (v2)",
		"epoch_cycles": epochCycles, "ingest_queries": len(ingestBatch()),
		"read_queries": len(readBatch()), "session_cache": "library default"}
}

func (w *ingestWL) setup(dir string) error {
	w.rows, w.dir = scaled(w.o, ingestRows), dir
	w.delta = int(deltaShare * float64(w.rows))
	b := bank()
	// One pass over the seed's row stream yields the base rows and, after
	// them, the rows every epoch appends in the same order.
	all, err := datagen.Materialize(b, w.rows+epochCycles*w.delta, w.o.seed)
	if err != nil {
		return err
	}
	base, err := rowRange(all, 0, w.rows)
	if err != nil {
		return err
	}
	w.tails = nil
	for c := 0; c < epochCycles; c++ {
		lo := w.rows + c*w.delta
		tail, err := rowRange(all, lo, lo+w.delta)
		if err != nil {
			return err
		}
		w.tails = append(w.tails, tail)
	}
	clustered := filepath.Join(dir, "clustered.opr")
	if err := relation.ConvertFileClustered(base, clustered, relation.DiskFormatV3,
		b.Schema().Index(filterAttr)); err != nil {
		return err
	}
	cr, err := relation.OpenDisk(clustered)
	if err != nil {
		return err
	}
	w.manifest = filepath.Join(dir, "bank.oprs")
	err = relation.ConvertToSharded(cr, w.manifest, ingestShards, relation.DiskFormatV3)
	cr.Close()
	if err != nil {
		return err
	}
	if err := os.Remove(clustered); err != nil {
		return err
	}
	if w.baseMan, err = os.ReadFile(w.manifest); err != nil {
		return err
	}
	w.baseFiles = map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		w.baseFiles[e.Name()] = true
	}
	return w.reset()
}

// rowRange copies rows [lo, hi) of mem into a relation of their own.
func rowRange(mem *relation.MemoryRelation, lo, hi int) (*relation.MemoryRelation, error) {
	schema := mem.Schema()
	out, err := relation.NewMemoryRelation(schema)
	if err != nil {
		return nil, err
	}
	var nums [][]float64
	var bools [][]bool
	for _, a := range schema.NumericIndices() {
		col, err := mem.NumericColumn(a)
		if err != nil {
			return nil, err
		}
		nums = append(nums, col)
	}
	for _, a := range schema.BooleanIndices() {
		col, err := mem.BoolColumn(a)
		if err != nil {
			return nil, err
		}
		bools = append(bools, col)
	}
	rowNums, rowBools := make([]float64, len(nums)), make([]bool, len(bools))
	for r := lo; r < hi; r++ {
		for j := range nums {
			rowNums[j] = nums[j][r]
		}
		for j := range bools {
			rowBools[j] = bools[j][r]
		}
		if err := out.Append(rowNums, rowBools); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reset restores the base relation and primes a new warm session.
func (w *ingestWL) reset() error {
	if w.rel != nil {
		if err := w.rel.Close(); err != nil {
			return err
		}
		w.rel = nil
	}
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !w.baseFiles[e.Name()] {
			if err := os.Remove(filepath.Join(w.dir, e.Name())); err != nil {
				return err
			}
		}
	}
	if err := os.WriteFile(w.manifest, w.baseMan, 0o644); err != nil {
		return err
	}
	rel, err := relation.OpenSharded(w.manifest)
	if err != nil {
		return err
	}
	w.rel = rel
	if w.warm, err = miner.NewSession(rel, sessionConfig(w.o.seed)); err != nil {
		return err
	}
	answers, err := w.warm.ExecuteBatch(ingestBatch())
	if err == nil {
		err = answerErr(answers)
	}
	if err != nil {
		return fmt.Errorf("priming the warm session: %w", err)
	}
	w.warmAns, w.epochAt = answers, 0
	return nil
}

// controlCheck compares the warm session with a cold rebuild that uses
// the warm session's boundaries: the folds must equal a recount.
func (w *ingestWL) controlCheck() error {
	control, err := miner.NewSession(w.rel, sessionConfig(w.o.seed))
	if err != nil {
		return err
	}
	control.StatsCache().CopyBoundsFrom(w.warm.StatsCache())
	answers, err := control.ExecuteBatch(ingestBatch())
	if err != nil {
		return err
	}
	if err := sameAnswers(w.warmAns, answers); err != nil {
		return fmt.Errorf("after %d appends the warm session differs from a cold rebuild: %w", w.epochAt, err)
	}
	return nil
}

// pruneCheck scans the relation with the read op's predicate and fails
// unless the zone maps skip rows: on the clustered base they must.
func (w *ingestWL) pruneCheck() error {
	p, err := prunedScan(w.rel, readColumns(w.rel.Schema()), w.rel.Schema().Index(filterAttr))
	if err != nil {
		return err
	}
	if p.skipped == 0 {
		return errors.New("the filtered scan pruned no rows of the clustered base relation")
	}
	return nil
}

// ingestOp appends one tail, refreshes the warm session and re-answers
// its batch. It returns the op's latency and its check.
func (w *ingestWL) ingestOp(c int) (time.Duration, error) {
	start := time.Now()
	_, err := relation.AppendToSharded(w.manifest, w.tails[c], relation.AppendOptions{})
	var ds miner.DeltaStats
	if err == nil {
		ds, err = w.warm.RefreshFromStorage()
	}
	var answers []miner.Answer
	if err == nil {
		answers, err = w.warm.ExecuteBatch(ingestBatch())
	}
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	w.warmAns = answers
	if err := answerErr(answers); err != nil {
		return d, err
	}
	if ds.Resamples == 0 && ds.RowsScanned != int64(w.delta) {
		return d, fmt.Errorf("cycle %d: the delta fold scanned %d rows for %d appended", c, ds.RowsScanned, w.delta)
	}
	return d, nil
}

// readOp answers the filtered batch from a new session.
func (w *ingestWL) readOp() (time.Duration, int64, error) {
	w.rel.ResetBytesRead()
	start := time.Now()
	s, err := miner.NewSession(w.rel, sessionConfig(w.o.seed))
	var answers []miner.Answer
	if err == nil {
		answers, err = s.ExecuteBatch(readBatch())
	}
	d := time.Since(start)
	bytes := w.rel.BytesRead()
	if err == nil {
		w.reader = s
		err = answerErr(answers)
	}
	if err == nil {
		err = recoversPlanted(answers[0].Rules)
	}
	return d, bytes, err
}

// nextCycle starts a new epoch when the current one is complete and
// runs the first-cycle pruning check.
func (w *ingestWL) nextCycle(g *gate) (int, error) {
	if w.epochAt == epochCycles {
		g.op(w.controlCheck())
		if err := w.reset(); err != nil {
			return 0, err
		}
	}
	if w.epochAt == 0 {
		g.op(w.pruneCheck())
	}
	c := w.epochAt
	w.epochAt++
	return c, nil
}

func (w *ingestWL) cycle(l *loopStats, g *gate) error {
	c, err := w.nextCycle(g)
	if err != nil {
		return err
	}
	ingest, err := w.ingestOp(c)
	g.op(err)
	read, bytes, err := w.readOp()
	g.op(err)
	l.ingestMs = append(l.ingestMs, ms(ingest))
	l.batchMs = append(l.batchMs, ms(read))
	l.cycleMs = append(l.cycleMs, ms(ingest+read))
	l.batchBytes = append(l.batchBytes, bytes)
	l.queries += len(ingestBatch()) + len(readBatch())
	l.busy += ingest + read
	return nil
}

// settled holds at the end of an epoch, so every run ends with the
// same appended rows on disk.
func (w *ingestWL) settled() bool { return w.epochAt == epochCycles }

func (w *ingestWL) finish(g *gate) (endState, error) {
	g.op(w.controlCheck())
	ratio, err := storedRatio(w.dir, w.rel.Schema(), w.rel.NumTuples())
	return endState{storedRatio: ratio, cacheBytes: w.warm.CacheStats().Bytes}, err
}

func (w *ingestWL) target() *target {
	t := &target{rel: w.rel, d: sessionDefaults(w.o.seed), opBatch: readBatch(),
		cold: true, pruned: true, pairBatch: ingestBatch(), pairCache: w.warm.StatsCache()}
	if w.reader != nil {
		t.cache = w.reader.StatsCache()
	}
	return t
}

func (w *ingestWL) close() {
	if w.rel != nil {
		w.rel.Close()
	}
}

// sessionDefaults mirrors the plan defaults miner.NewSession derives
// from the library's default configuration, so the layer probes build
// the statistics a session would.
func sessionDefaults(seed int64) plan.Defaults {
	return plan.Defaults{MinSupport: 0.05, MinConfidence: 0.5, Buckets: 1000,
		GridSide: miner.DefaultGridSide, SampleFactor: 40, Seed: seed}
}
