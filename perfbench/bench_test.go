package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"optrule/internal/miner"
)

// contract is the part of BENCHMARK.json the tests check against.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smallRun runs a workload at the smallest scale.
func smallRun(t *testing.T, workload string, trace bool) (result, map[string]any) {
	t.Helper()
	dir := t.TempDir()
	o := options{workload: workload, seed: 7, seconds: 0.2, trace: trace, scale: 0.001,
		setups: 2, dir: dir, spans: filepath.Join(dir, "spans.json")}
	res, report, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d failures=%v",
			workload, res.Correct, res.Attempted, res.Failed, report["failures"])
	}
	return res, report
}

// TestSmokeEmitsEveryMetric runs every workload of BENCHMARK.json at a
// reduced size, untraced and traced, and checks that each run is
// correct and emits exactly the metrics the contract names.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, report := smallRun(t, w.Name, trace)
				want := c.EndToEnd
				if trace {
					want = c.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if _, ok := res.Metrics[m.Name]; !ok {
						t.Errorf("trace=%v: metric %s missing", trace, m.Name)
					}
				}
				for _, k := range []string{"host", "config", "seed"} {
					if report[k] == nil {
						t.Errorf("trace=%v: report has no %s block", trace, k)
					}
				}
				if trace {
					if _, err := os.Stat(report["span_file"].(string)); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			}
		})
	}
}

// setUp prepares a workload at the smallest scale.
func setUp(t *testing.T, w workload) {
	t.Helper()
	if err := w.setup(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
}

var small = options{seed: 7, scale: 0.001}

// TestGateCountsWrongAnswer perturbs each workload's reference answers
// and checks that the op comparing against them counts as failed.
func TestGateCountsWrongAnswer(t *testing.T) {
	t.Run("cold-batch", func(t *testing.T) {
		w := &coldBatchWL{o: small}
		setUp(t, w)
		var l loopStats
		g := &gate{}
		if err := w.cycle(&l, g); err != nil {
			t.Fatal(err)
		}
		if g.failed != 0 {
			t.Fatalf("unperturbed op failed: %v", g.failures)
		}
		w.ref[0].Rules[0].Confidence += 1e-9
		if err := w.cycle(&l, g); err != nil {
			t.Fatal(err)
		}
		if g.attempted != 2 || g.failed != 1 {
			t.Fatalf("attempted %d failed %d, want 2 and 1", g.attempted, g.failed)
		}
	})
	t.Run("warm-requery", func(t *testing.T) {
		w := &warmRequeryWL{o: small}
		setUp(t, w)
		// Every variant of the 1-D rules class is perturbed, so whichever
		// the op draws must miss.
		for v := range w.ref[2] {
			w.ref[2][v].Rules[0].Low--
		}
		var l loopStats
		g := &gate{}
		if err := w.cycle(&l, g); err != nil {
			t.Fatal(err)
		}
		if g.attempted != 1 || g.failed != 1 {
			t.Fatalf("attempted %d failed %d, want 1 and 1", g.attempted, g.failed)
		}
	})
	t.Run("ingest-filtered", func(t *testing.T) {
		w := &ingestWL{o: small}
		setUp(t, w)
		var l loopStats
		g := &gate{}
		if err := w.cycle(&l, g); err != nil {
			t.Fatal(err)
		}
		if g.failed != 0 {
			t.Fatalf("unperturbed cycle failed: %v", g.failures)
		}
		// The end-of-run check compares the warm session's last answers
		// with a cold rebuild.
		w.warmAns[0].Rules[0].Support *= 1.5
		if _, err := w.finish(g); err != nil {
			t.Fatal(err)
		}
		if g.failed != 1 {
			t.Fatalf("failed %d of %d, want the end-of-run check to fail", g.failed, g.attempted)
		}
	})
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct := tail(xs)
	if v != 90 || pct != "p90.0 of 100 samples" {
		t.Fatalf("tail = %v (%s), want 90 at p90.0", v, pct)
	}
	if v, _ := tail(xs[:5]); v != 5 {
		t.Fatalf("short tail = %v, want the maximum", v)
	}
}

// TestRecoversPlanted accepts a rule whose end bucket straddles the
// planted endpoint and rejects one outside the planted range.
func TestRecoversPlanted(t *testing.T) {
	rule := func(numeric, objective string, lo, hi float64) miner.Rule {
		return miner.Rule{Kind: miner.OptimizedConfidence, Numeric: numeric, Objective: objective,
			ObjectiveValue: true, Low: lo, High: hi, Confidence: 0.6, Baseline: 0.3}
	}
	mortgage := rule("Age", "Mortgage", 36, 39)
	if err := recoversPlanted([]miner.Rule{rule("Balance", "CardLoan", 13161.9, 20005.7), mortgage}); err != nil {
		t.Errorf("straddling end bucket: %v", err)
	}
	if err := recoversPlanted([]miner.Rule{rule("Balance", "CardLoan", 25000, 40000), mortgage}); err == nil {
		t.Error("a range outside the planted one passed")
	}
	if err := recoversPlanted([]miner.Rule{mortgage}); err == nil {
		t.Error("a missing planted rule passed")
	}
}
