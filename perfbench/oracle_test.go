package main

import (
	"math"
	"strings"
	"testing"

	"ucat/internal/uda"
)

func d(pairs ...uda.Pair) uda.UDA { return uda.MustNew(pairs...) }

func p(item uint32, prob float64) uda.Pair { return uda.Pair{Item: item, Prob: prob} }

// Hand-worked equality and window probabilities.
func TestOracleProbabilities(t *testing.T) {
	q := d(p(1, 0.5), p(2, 0.3), p(7, 0.2))
	cases := []struct {
		name string
		t    uda.UDA
		eq   float64
		win1 float64 // |q − t| ≤ 1
	}{
		// Shared items 1 and 2: 0.5·0.4 + 0.3·0.6.
		{"two shared items", d(p(1, 0.4), p(2, 0.6)), 0.38, 0.5*0.4 + 0.5*0.6 + 0.3*0.4 + 0.3*0.6},
		// Nothing shared; item 8 lies within 1 of item 7.
		{"disjoint", d(p(3, 0.5), p(8, 0.5)), 0, 0.3*0.5 + 0.2*0.5},
		// Identical distributions: Σ p².
		{"itself", q, 0.25 + 0.09 + 0.04, 0.25 + 0.5*0.3 + 0.3*0.5 + 0.09 + 0.04},
	}
	for _, c := range cases {
		if got := eqProb(q, c.t); math.Abs(got-c.eq) > 1e-12 {
			t.Errorf("%s: eqProb = %g, want %g", c.name, got, c.eq)
		}
		if got := windowProb(q, c.t, 1); math.Abs(got-c.win1) > 1e-12 {
			t.Errorf("%s: windowProb = %g, want %g", c.name, got, c.win1)
		}
		if got := windowProb(q, c.t, 0); math.Abs(got-c.eq) > 1e-12 {
			t.Errorf("%s: window 0 = %g, want the equality probability %g", c.name, got, c.eq)
		}
	}
}

func TestCalibrateFindsGap(t *testing.T) {
	sorted := []float64{0.9, 0.8, 0.5, 0.5, 0.5, 0.2, 0}
	// Rank 3 sits inside a three-way tie; the first gap after it is 0.5|0.2.
	tau, ok := calibrate(sorted, 3)
	if !ok || math.Abs(tau-0.35) > 1e-12 {
		t.Fatalf("calibrate(3) = %g, %v; want 0.35", tau, ok)
	}
	if tau, ok := calibrate(sorted, 7); !ok || tau != 0 {
		t.Fatalf("calibrate past the positives = %g, %v; want τ 0", tau, ok)
	}
	top := descending([]float64{0.1, 0.7, 0.3, 0.9, 0.5}, 3)
	if len(top) != 3 || top[0] != 0.9 || top[1] != 0.7 || top[2] != 0.5 {
		t.Fatalf("descending(3) = %v", top)
	}
}

// probsOf is an oracle over a fixed probability table, for the checks.
func probsOf(probs []float64) func(uint32) (float64, bool) {
	return func(tid uint32) (float64, bool) {
		if int(tid) >= len(probs) {
			return 0, false
		}
		return probs[tid], true
	}
}

func TestCheckPETQ(t *testing.T) {
	probs := []float64{0.1, 0.6, 0.3, 0.6, 0}
	e := expectPETQ(probs, 0.2)
	ok := []answer{{1, 0.6}, {3, 0.6}, {2, 0.3}}
	if err := e.check(ok, probsOf(probs)); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, bad := range map[string][]answer{
		"missing tuple":   {{1, 0.6}, {3, 0.6}},
		"tuple below τ":   {{1, 0.6}, {3, 0.6}, {0, 0.1}},
		"duplicate":       {{1, 0.6}, {1, 0.6}, {2, 0.3}},
		"wrong prob":      {{1, 0.6}, {3, 0.6}, {2, 0.31}},
		"ascending order": {{2, 0.3}, {1, 0.6}, {3, 0.6}},
		"unknown tuple":   {{1, 0.6}, {3, 0.6}, {9, 0.3}},
	} {
		if err := e.check(bad, probsOf(probs)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Ties at the k-th place may be broken either way, but every tuple above
// the k-th probability must be present.
func TestCheckTopKTies(t *testing.T) {
	probs := []float64{0.5, 0.2, 0.9, 0.2, 0.2, 0.1}
	e := expectTopK(descending(probs, len(probs)), 3)
	for _, ok := range [][]answer{
		{{2, 0.9}, {0, 0.5}, {1, 0.2}},
		{{2, 0.9}, {0, 0.5}, {4, 0.2}},
	} {
		if err := e.check(ok, probsOf(probs)); err != nil {
			t.Errorf("tie broken another way rejected: %v", err)
		}
	}
	bad := []answer{{2, 0.9}, {1, 0.2}, {3, 0.2}}
	if err := e.check(bad, probsOf(probs)); err == nil || !strings.Contains(err.Error(), "0.5") && !strings.Contains(err.Error(), "above") {
		t.Errorf("answer missing the 0.5 tuple: err = %v", err)
	}
	short := []answer{{2, 0.9}, {0, 0.5}}
	if err := e.check(short, probsOf(probs)); err == nil {
		t.Error("short answer accepted")
	}
}
