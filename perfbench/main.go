// Command perfbench is the standing benchmark of the optimized-rule
// engine. One invocation sets up one workload from a seed, drives the
// engine's public API in a closed loop for a fixed time, checks every
// answer against references computed during set-up, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload cold-batch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it replays each op through the layers' exported calls,
// records a span per call, writes the spans to a file and reports the
// per-layer metrics instead. README.md in this directory explains the
// workloads and what every metric should move. run.sh builds the
// program from source and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// options are the settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every workload's row counts; 1 is the benchmark
	// proper, the tests use a small fraction.
	scale float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// dir holds generated data (removed on exit); spans is the traced
	// run's span file.
	dir, spans string
}

const (
	// setups repeats set-up so that setup_s, their median, is steady.
	setups = 3
	// dataDir is relative to the working directory, the repository root.
	dataDir = ".bench_data"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadList())
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated data and query variants")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed loop in seconds")
	flag.IntVar(&trace, "trace", 0, "1 replays the ops through the layers and reports per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	o.trace, o.scale, o.setups, o.dir = trace == 1, 1, setups, dataDir
	o.spans = filepath.Join(dataDir, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	res, report, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one invocation and returns the result line plus the
// report line printed before it (host, configuration and the details
// behind each metric).
func run(o options) (result, map[string]any, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadList())
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, nil, err
	}
	dir, err := os.MkdirTemp(o.dir, o.workload+"-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up runs several times, each into a fresh directory; the loop
	// keeps the last one. setup_s is the median, so a stray slow file
	// write does not decide it.
	var w workload
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		if w != nil {
			w.close()
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if i > 0 {
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup%d", i-1))); err != nil {
				return result{}, nil, err
			}
		}
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return result{}, nil, err
		}
		w = mk(o)
		start := time.Now()
		if err := w.setup(sub); err != nil {
			w.close()
			return result{}, nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer w.close()

	gate := &gate{}
	report := map[string]any{
		"workload": o.workload,
		"host":     hostInfo(),
		"config":   w.config(),
		"seed":     o.seed,
		"seconds":  o.seconds,
		"trace":    o.trace,
		"setup_s":  setupS,
	}
	var metrics map[string]metric
	if o.trace {
		metrics, err = traced(o, w, gate, report)
	} else {
		metrics, err = untraced(o, w, gate, report)
		metrics["setup_s"] = metric{median(setupS), "s"}
	}
	if err != nil {
		return result{}, nil, err
	}
	report["failures"] = gate.failures
	report["failed_ops_ratio"] = gate.failedRatio()
	return result{
		Correct:   gate.failed == 0,
		Attempted: gate.attempted,
		Failed:    gate.failed,
		Metrics:   metrics,
	}, report, nil
}

// untraced runs the timed closed loop and derives the end-to-end
// metrics.
func untraced(o options, w workload, g *gate, report map[string]any) (map[string]metric, error) {
	var l loopStats
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline) || !w.settled(); i++ {
		if err := w.cycle(&l, g); err != nil {
			return nil, err
		}
	}
	end, err := w.finish(g)
	if err != nil {
		return nil, err
	}
	// The tail and the throughput are reported, not gated: on a shared
	// 2-vCPU host the 11th-slowest of several hundred ops, and the mean
	// op time behind the throughput, moved by a quarter to a third
	// between runs of the same code, the medians by far less.
	batchTail, batchPct := tail(l.batchMs)
	report["batch_ops"] = len(l.batchMs)
	report["batch_ms_tail"] = batchTail
	report["batch_tail_percentile"] = batchPct
	report["queries_per_s"] = float64(l.queries) / l.busy.Seconds()
	report["busy_s"] = l.busy.Seconds()
	report["read_bytes_per_batch"] = medianInt(l.batchBytes)
	if len(l.ingestMs) > 0 {
		ingestTail, ingestPct := tail(l.ingestMs)
		report["ingest_ops"] = len(l.ingestMs)
		report["ingest_ms_p50"] = median(l.ingestMs)
		report["ingest_ms_tail"] = ingestTail
		report["ingest_tail_percentile"] = ingestPct
	}
	return map[string]metric{
		"batch_ms_p50":               {median(l.batchMs), "ms"},
		"cycle_ms_p50":               {median(l.cycleMs), "ms"},
		"stored_bytes_per_user_byte": {end.storedRatio, "ratio"},
		"stats_cache_mb":             {float64(end.cacheBytes) / 1e6, "MB"},
		"ok_ops_ratio":               {1 - g.failedRatio(), "ratio"},
	}, nil
}
