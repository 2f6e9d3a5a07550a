package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"optrule/internal/bucketing"
	"optrule/internal/plan"
	"optrule/internal/sampling"
)

// The traced run. The engine records no spans of its own, so the
// benchmark records them around its calls into each layer: for every
// loop iteration (op id i) it
//
//  1. runs the workload's op untimed by spans, as the end-to-end run
//     does (the untraced op);
//  2. runs the same op again under a "miner.batch" span (the traced
//     op; trace.overhead compares the two);
//  3. replays the op through the layers' exported calls under an "op"
//     span: resolve, then sampling, cutting and counting (or a cache
//     lookup), then every extraction kernel the op's queries use;
//  4. runs the layer probes under a "probe" span;
//  5. runs an ingest op through its layer calls under an "ingest" span.
//
// Spans stay in memory and are written to one file when the run ends.

// span is one timed call. Parent is 0 for a root; every span of one
// loop iteration carries its op id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// span runs f under a span and returns its duration.
func (t *tracer) span(name string, parent, op int, f func() error) (time.Duration, error) {
	id := t.begin(name, parent, op)
	err := f()
	return t.end(id), err
}

// selfByLayer sums, per layer (the span name up to its first dot),
// the self time of root's descendants: a span's duration minus the
// part of it its children cover.
func (t *tracer) selfByLayer(root int) map[string]time.Duration {
	child := map[int]time.Duration{}
	var ids []int
	for _, s := range t.spans[root:] {
		if s.Parent == root {
			ids = append(ids, s.ID)
		}
	}
	for _, s := range t.spans[root:] {
		if s.Parent != 0 && s.Parent != root {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]time.Duration{}
	for _, id := range ids {
		s := t.spans[id-1]
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End-s.Start) - child[id]
	}
	return out
}

// write stores every span as JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	meta["spans"] = t.spans
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// samples collects one value per loop iteration for each metric.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// traced runs the traced loop and derives the per-layer metrics.
func traced(o options, w workload, g *gate, report map[string]any) (map[string]metric, error) {
	env, ok := w.(*ingestWL)
	if !ok {
		// Workloads without appends run the ingest probes on an ingest
		// relation of their own.
		env = &ingestWL{o: o}
		dir, err := os.MkdirTemp(o.dir, "ingest-probe-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if err := env.setup(dir); err != nil {
			return nil, fmt.Errorf("ingest probe set-up: %w", err)
		}
		defer env.close()
	}
	tr := newTracer()
	vals := samples{}
	var plain, spanned loopStats
	var ingestMs []float64
	var peakHeap uint64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		before := w.target().cache
		var prev plan.CacheStats
		if before != nil {
			prev = before.Stats()
		}
		if err := w.cycle(&plain, g); err != nil {
			return nil, err
		}
		t := w.target()
		cacheStats(vals, t, before, prev)

		id := tr.begin("miner.batch", 0, i)
		if err := w.cycle(&spanned, g); err != nil {
			return nil, err
		}
		tr.end(id)
		vals.add("miner.read_bytes_per_batch", float64(spanned.batchBytes[len(spanned.batchBytes)-1]))

		t = w.target()
		rp, err := replayOp(tr, i, t)
		if err != nil {
			return nil, fmt.Errorf("replaying op %d: %w", i, err)
		}
		pr, err := probeLayers(tr, i, t, vals)
		if err != nil {
			return nil, fmt.Errorf("probing op %d: %w", i, err)
		}
		d, err := ingestProbe(tr, i, env, g, vals)
		if err != nil {
			return nil, err
		}
		ingestMs = append(ingestMs, ms(d))

		// The counting span's time splits by the probes' floors: decode
		// (the scan), locate, and the tally that remains.
		opMs := plain.batchMs[len(plain.batchMs)-1]
		self := rp.self
		var decode, locate time.Duration
		if rp.counting > 0 {
			decode = pr.scan
			if t.pruned {
				decode = pr.prunedScan
			}
			locate = pr.locate
			self["relation"] += decode
			self["bucketing"] += locate
			self["plan"] -= decode + locate
		}
		var layers time.Duration
		for _, layer := range []string{"relation", "sampling", "bucketing", "plan", "core", "region"} {
			layers += self[layer]
			vals.add(layer+".self_ms", ms(self[layer]))
		}
		vals.add("trace.coverage", ms(layers)/opMs)
		vals.add("miner.self_ms", opMs-ms(layers))
		share := func(part time.Duration) float64 {
			if rp.counting == 0 {
				return 0
			}
			return float64(part) / float64(rp.counting)
		}
		vals.add("plan.counting_share", float64(rp.counting)/float64(rp.total))
		vals.add("relation.decode_share", share(decode))
		vals.add("bucketing.locate_share", share(locate))
		vals.add("plan.tally_share", share(rp.counting-decode-locate))

		// Collect first, so HeapAlloc counts live objects only.
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > peakHeap {
			peakHeap = m.HeapAlloc
		}
	}
	if _, err := w.finish(g); err != nil {
		return nil, err
	}

	meta := map[string]any{"workload": o.workload, "seed": o.seed, "host": hostInfo()}
	if err := tr.write(o.spans, meta); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	report["span_file"] = o.spans
	report["spans"] = len(tr.spans)
	report["traced_ops"] = len(spanned.batchMs)
	selfMs := map[string]float64{}
	for name, v := range vals {
		if strings.HasSuffix(name, ".self_ms") {
			selfMs[strings.TrimSuffix(name, ".self_ms")] = median(v)
		}
	}
	// Self times go to the report, not the metrics: a layer off a
	// workload's path has none, and a metric that is 0 on every run
	// compares with nothing.
	report["layer_self_ms"] = selfMs

	ingestTail, ingestPct := tail(ingestMs)
	report["ingest_tail_percentile"] = ingestPct
	out := map[string]metric{
		"miner.batch_ms":            {median(spanned.batchMs), "ms"},
		"miner.ingest_ms_p50":       {median(ingestMs), "ms"},
		"miner.ingest_ms_tail":      {ingestTail, "ms"},
		"trace.overhead":            {median(spanned.batchMs)/median(plain.batchMs) - 1, "ratio"},
		"process.peak_live_heap_mb": {float64(peakHeap) / 1e6, "MB"},
	}
	for _, m := range perLayerMetrics {
		if _, done := out[m.name]; done {
			continue
		}
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		out[m.name] = metric{median(v), m.unit}
	}
	return out, nil
}

// perLayerMetrics lists every per-layer metric with its unit.
var perLayerMetrics = []struct{ name, unit string }{
	{"relation.scan_ns_per_row", "ns/row"},
	{"relation.decoded_gbps", "GB/s"},
	{"relation.read_bytes", "B"},
	{"relation.pruned_scan_ns_per_row", "ns/row"},
	{"relation.pruned_rows_ratio", "ratio"},
	{"relation.filter_match_ratio", "ratio"},
	{"relation.append_ms", "ms"},
	{"relation.append_written_bytes", "B"},
	{"relation.reopen_us", "us"},
	{"relation.decode_share", "ratio"},
	{"sampling.sample_ms", "ms"},
	{"sampling.points", "count"},
	{"sampling.read_bytes", "B"},
	{"bucketing.cut_ms", "ms"},
	{"bucketing.locate_ns_per_row", "ns/row"},
	{"bucketing.multicount_ns_per_row", "ns/row"},
	{"bucketing.locate_share", "ratio"},
	{"plan.resolve_us", "us"},
	{"plan.lookup_us", "us"},
	{"plan.count_ns_per_row", "ns/row"},
	{"plan.tally_ns_per_row", "ns/row"},
	{"plan.tally_share", "ratio"},
	{"plan.counting_share", "ratio"},
	{"plan.cache_hit_ratio", "ratio"},
	{"plan.cache_evictions", "count"},
	{"plan.cache_bytes", "B"},
	{"plan.delta_ms", "ms"},
	{"plan.delta_rows", "count"},
	{"plan.resamples", "count"},
	{"plan.entries_folded", "count"},
	{"plan.entries_dropped", "count"},
	{"core.confidence_us", "us"},
	{"core.support_us", "us"},
	{"core.topk_us", "us"},
	{"core.gain_us", "us"},
	{"region.rect_ms", "ms"},
	{"region.xmonotone_ms", "ms"},
	{"region.rectconvex_ms", "ms"},
	{"miner.batch_ms", "ms"},
	{"miner.self_ms", "ms"},
	{"miner.read_bytes_per_batch", "B"},
	{"miner.ingest_ms_p50", "ms"},
	{"miner.ingest_ms_tail", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
	{"process.peak_live_heap_mb", "MB"},
}

// cacheStats records what the untraced op did to its session's cache:
// a session created by the op reports its own totals, a reused one the
// change across the op.
func cacheStats(vals samples, t *target, before *plan.LRUCache, prev plan.CacheStats) {
	cur := t.cache.Stats()
	if t.cache != before {
		prev = plan.CacheStats{}
	}
	hits, misses := cur.Hits-prev.Hits, cur.Misses-prev.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	vals.add("plan.cache_hit_ratio", ratio)
	vals.add("plan.cache_evictions", float64(cur.Evictions-prev.Evictions))
	vals.add("plan.cache_bytes", float64(cur.Bytes))
}

// replay is what one op replay measured.
type replay struct {
	total, counting time.Duration
	self            map[string]time.Duration
}

// replayOp re-runs the op through the layers under an "op" span.
func replayOp(tr *tracer, op int, t *target) (replay, error) {
	root := tr.begin("op", 0, op)
	var rp replay
	var rs []*plan.Resolved
	var req *plan.Requirements
	_, err := tr.span("plan.resolve", root, op, func() error {
		var err error
		rs, req, err = resolveAll(t.rel, t.d, t.opBatch)
		return err
	})
	if err != nil {
		return rp, err
	}
	var set *plan.StatsSet
	if t.cold {
		keys := boundKeys(req)
		var smp []sampling.MultiSample
		if _, err := tr.span("sampling.sample", root, op, func() error {
			var err error
			smp, _, err = sample(t.rel, t.d, keys)
			return err
		}); err != nil {
			return rp, err
		}
		var bounds map[plan.BoundKey]bucketing.Boundaries
		if _, err := tr.span("bucketing.cut", root, op, func() error {
			var err error
			bounds, err = cut(keys, smp)
			return err
		}); err != nil {
			return rp, err
		}
		cache := boundedCache(bounds, t.rel.NumTuples())
		rp.counting, err = tr.span("plan.count", root, op, func() error {
			var err error
			set, err = plan.Run(t.rel, t.d, cache, req)
			return err
		})
	} else {
		_, err = tr.span("plan.lookup", root, op, func() error {
			var err error
			set, err = plan.Run(t.rel, t.d, t.cache, req)
			return err
		})
	}
	if err != nil {
		return rp, err
	}
	if err := extractReplay(rs, set, newKernelTimes(tr, root, op)); err != nil {
		return rp, err
	}
	rp.total = tr.end(root)
	rp.self = tr.selfByLayer(root)
	return rp, nil
}
