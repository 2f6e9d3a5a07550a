package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestKernelExperimentRuns runs the counting-kernel comparison at a
// small scale: it must produce both timings, and the check inside
// Kernel (general-kernel groups vs MultiCount's counts) must hold —
// any deviation is an error, not a benchmark number.
func TestKernelExperimentRuns(t *testing.T) {
	res, err := Kernel(30000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FastPathSeconds <= 0 || res.VecSeconds <= 0 {
		t.Errorf("missing timings: %+v", res)
	}
	if res.GapToFast <= 0 {
		t.Errorf("ratio not computed: %+v", res)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Counting kernels") {
		t.Errorf("print output malformed: %s", buf.String())
	}
}
