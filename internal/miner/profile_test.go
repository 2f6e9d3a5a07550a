package miner

import (
	"bytes"
	"strings"
	"testing"
)

func TestBuildProfileShape(t *testing.T) {
	rel := twoClusterRelation(t, 30000)
	prof, err := BuildProfile(rel, "X", "B", true, 20, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Buckets) != 20 {
		t.Fatalf("buckets = %d, want 20", len(prof.Buckets))
	}
	total := 0
	for i, b := range prof.Buckets {
		total += b.Support
		if b.Conf < 0 || b.Conf > 1 {
			t.Errorf("bucket %d conf %g out of range", i, b.Conf)
		}
		if b.Lo > b.Hi {
			t.Errorf("bucket %d inverted extremes [%g, %g]", i, b.Lo, b.Hi)
		}
		if i > 0 && b.Lo < prof.Buckets[i-1].Hi {
			t.Errorf("buckets %d and %d overlap", i-1, i)
		}
	}
	if total != prof.N {
		t.Errorf("bucket supports sum to %d, want %d", total, prof.N)
	}
	// The high-confidence cluster [100, 200] must show up: a bucket
	// centered inside it has high confidence (bucket edges may straddle
	// the cluster boundary slightly) while the background stays low.
	sawHot, sawCold := false, false
	for _, b := range prof.Buckets {
		mid := (b.Lo + b.Hi) / 2
		if mid >= 100 && mid <= 200 && b.Conf > 0.6 {
			sawHot = true
		}
		if b.Lo > 750 && b.Conf < 0.2 {
			sawCold = true
		}
	}
	if !sawHot || !sawCold {
		t.Errorf("planted structure not visible in profile (hot=%v cold=%v)", sawHot, sawCold)
	}
}

func TestProfileRender(t *testing.T) {
	rel := twoClusterRelation(t, 10000)
	prof, err := BuildProfile(rel, "X", "B", true, 10, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	prof.Render(&buf, 100, 200, true)
	out := buf.String()
	if !strings.Contains(out, "confidence of (B=yes) by X bucket") {
		t.Errorf("header missing: %s", out)
	}
	if !strings.Contains(out, "█") {
		t.Errorf("bars missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 11 { // header + 10 buckets
		t.Errorf("expected 11 lines, got %d", len(lines))
	}
	// Without highlight no ◆ marker appears.
	buf.Reset()
	prof.Render(&buf, 0, 0, false)
	if strings.Contains(buf.String(), "◆") {
		t.Errorf("unexpected highlight marker")
	}
}

func TestBuildProfileValidation(t *testing.T) {
	rel := twoClusterRelation(t, 100)
	if _, err := BuildProfile(rel, "Nope", "B", true, 10, Config{}); err == nil {
		t.Errorf("unknown numeric accepted")
	}
	if _, err := BuildProfile(rel, "X", "Nope", true, 10, Config{}); err == nil {
		t.Errorf("unknown objective accepted")
	}
	if _, err := BuildProfile(rel, "X", "B", true, 0, Config{}); err == nil {
		t.Errorf("zero buckets accepted")
	}
}

// TestBuildProfileMatchesOracle pins the session-built profile bucket
// for bucket against the brute-force oracle's recount.
func TestBuildProfileMatchesOracle(t *testing.T) {
	rel := twoClusterRelation(t, 30000)
	cfg := Config{Seed: 1}
	prof, err := BuildProfile(rel, "X", "B", true, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqual(t, "profile", prof, newOracle(t, rel, cfg).profile("X", "B", true, 20))
}
