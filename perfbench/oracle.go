package main

import (
	"fmt"
	"math"
	"sort"

	"ucat/internal/uda"
)

// The oracle computes every answer the benchmark checks from the raw
// (item, probability) pairs, without calling the program's own probability
// code: equality probability is Σ pᵢ·qᵢ over the items two distributions
// share, and window probability Σ pᵢ·qⱼ over item pairs with |i−j| ≤ c.

// tolerance bounds how far a reported probability may sit from the
// oracle's. Summation order alone moves the last few ulps.
const tolerance = 1e-9

// The oracle reads each distribution's pairs in place (Len, Pair), items
// ascending, so it holds no copy of the data it checks against.

// eqProb is Pr(q = t) = Σ over shared items of q(i)·t(i).
func eqProb(q, t uda.UDA) float64 {
	var s float64
	i, j := 0, 0
	for i < q.Len() && j < t.Len() {
		a, b := q.Pair(i), t.Pair(j)
		switch {
		case a.Item < b.Item:
			i++
		case a.Item > b.Item:
			j++
		default:
			s += a.Prob * b.Prob
			i++
			j++
		}
	}
	return s
}

// windowProb is Pr(|q − t| ≤ c), item codes read as positions.
func windowProb(q, t uda.UDA, c uint32) float64 {
	var s float64
	for i := 0; i < q.Len(); i++ {
		a := q.Pair(i)
		for j := 0; j < t.Len(); j++ {
			b := t.Pair(j)
			d := a.Item - b.Item
			if b.Item > a.Item {
				d = b.Item - a.Item
			}
			if d <= c {
				s += a.Prob * b.Prob
			}
		}
	}
	return s
}

// answer is one tuple of an answer set.
type answer struct {
	TID  uint32
	Prob float64
}

// probsFor evaluates prob against every tuple; index = tuple id.
func probsFor(tuples []uda.UDA, prob func(t uda.UDA) float64) []float64 {
	out := make([]float64, len(tuples))
	for i, t := range tuples {
		out[i] = prob(t)
	}
	return out
}

// descending returns the m highest of probs (all of them when m ≥
// len(probs)), sorted descending. A quickselect moves them to the front
// first, so calibration does not sort the whole relation per query.
func descending(probs []float64, m int) []float64 {
	s := append([]float64(nil), probs...)
	if m < len(s) {
		lo, hi := 0, len(s)-1
		for lo < hi {
			p := s[(lo+hi)/2]
			i, j := lo, hi
			for i <= j {
				for s[i] > p {
					i++
				}
				for s[j] < p {
					j--
				}
				if i <= j {
					s[i], s[j] = s[j], s[i]
					i++
					j--
				}
			}
			switch {
			case m-1 <= j:
				hi = j
			case m-1 >= i:
				lo = i
			default:
				lo = hi
			}
		}
		s = s[:m]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s
}

// calibrationSlack is how far past the target rank calibration looks for a
// gap before it sorts everything.
const calibrationSlack = 256

// calibrated returns τ and the answer size for about target answers, or
// the top-k k, from the oracle probabilities of one query.
func calibrated(probs []float64, target int, topk bool) (tau float64, k int, e expected, err error) {
	top := descending(probs, target+calibrationSlack)
	pos := 0
	for _, p := range probs {
		if p > 0 {
			pos++
		}
	}
	if topk {
		k = min(target, pos)
		return 0, k, expectTopK(top, k), nil
	}
	tau, ok := calibrate(top, target)
	if !ok && len(top) < len(probs) {
		tau, ok = calibrate(descending(probs, len(probs)), target)
	}
	if !ok {
		return 0, 0, e, fmt.Errorf("no threshold near %d answers", target)
	}
	return tau, 0, expectPETQ(probs, tau), nil
}

// calibrate picks a threshold that admits about target tuples: the
// midpoint of the first gap wider than 2·tolerance at or after rank
// target, so that no tuple sits within tolerance of τ and the strict
// "p > τ" test cannot flip on rounding. When fewer than target tuples
// have a positive probability, τ is 0 and the answer is all of them. ok is
// false when sorted (the highest probabilities, descending) holds no gap.
func calibrate(sorted []float64, target int) (tau float64, ok bool) {
	target = max(target, 1)
	if target <= len(sorted) && sorted[target-1] <= 0 {
		return 0, true
	}
	for m := target; m < len(sorted); m++ {
		hi, lo := sorted[m-1], sorted[m]
		if hi <= 0 {
			return 0, true
		}
		if hi-lo > 2*tolerance {
			return (hi + lo) / 2, true
		}
	}
	return 0, false
}

// expected is what the oracle knows about one query's answer, kept to a
// few numbers: answers are checked by evaluating the oracle on each tuple
// the program returns.
type expected struct {
	topk  bool
	tau   float64 // petq: the threshold
	k     int     // the answer size: petq's exact size, top-k's k
	kth   float64 // top-k: the k-th highest probability
	above int     // top-k: tuples with probability above kth + 2·tolerance
}

// expectPETQ is the oracle answer of PETQ(τ): every tuple with p > τ.
func expectPETQ(probs []float64, tau float64) expected {
	e := expected{tau: tau}
	for _, p := range probs {
		if p > tau {
			e.k++
		}
	}
	return e
}

// expectTopK is the oracle answer of top-k over sorted (descending)
// probabilities. Tuples within 2·tolerance of the k-th probability are
// ties: any of them may fill the last places.
func expectTopK(sorted []float64, k int) expected {
	e := expected{topk: true, k: k, kth: sorted[k-1]}
	for _, p := range sorted[:k] {
		if p > e.kth+2*tolerance {
			e.above++
		}
	}
	return e
}

var checkBuf []answer

// check verifies an answer; prob is the oracle's probability of a tuple id
// (ok false for an id that holds no tuple). The answer must hold k
// distinct tuples in descending order, each reported within tolerance of
// the oracle. For PETQ every tuple must have p > τ, which with the right
// count makes the set the oracle's. For top-k every tuple must reach the
// k-th probability and every tuple clearly above it must be present.
func (e *expected) check(got []answer, prob func(tid uint32) (float64, bool)) error {
	what := "petq"
	if e.topk {
		what = "topk"
	}
	if len(got) != e.k {
		return fmt.Errorf("%s returned %d tuples, oracle has %d", what, len(got), e.k)
	}
	above := 0
	for i, a := range got {
		if i > 0 && a.Prob > got[i-1].Prob {
			return fmt.Errorf("%s answer not in descending order at rank %d", what, i)
		}
		p, ok := prob(a.TID)
		if !ok {
			return fmt.Errorf("%s returned tuple %d, which does not exist", what, a.TID)
		}
		if math.Abs(a.Prob-p) > tolerance {
			return fmt.Errorf("%s tuple %d: probability %.17g, oracle %.17g", what, a.TID, a.Prob, p)
		}
		switch {
		case !e.topk && p <= e.tau:
			return fmt.Errorf("petq returned tuple %d with oracle probability %.17g ≤ τ %.17g", a.TID, p, e.tau)
		case e.topk && p < e.kth-2*tolerance:
			return fmt.Errorf("topk returned tuple %d with oracle probability %.17g below the k-th %.17g", a.TID, p, e.kth)
		case e.topk && p > e.kth+2*tolerance:
			above++
		}
	}
	if e.topk && above != e.above {
		return fmt.Errorf("topk holds %d tuples above the k-th probability, oracle has %d", above, e.above)
	}
	checkBuf = append(checkBuf[:0], got...)
	sort.Slice(checkBuf, func(i, j int) bool { return checkBuf[i].TID < checkBuf[j].TID })
	for i := 1; i < len(checkBuf); i++ {
		if checkBuf[i].TID == checkBuf[i-1].TID {
			return fmt.Errorf("%s returned tuple %d twice", what, checkBuf[i].TID)
		}
	}
	return nil
}

// tupleProb makes the oracle's per-tuple probability function for a check:
// the query against tuples[tid], by equality or, with c > 0, by window.
func tupleProb(q uda.UDA, c uint32, tuples []uda.UDA) func(uint32) (float64, bool) {
	return func(tid uint32) (float64, bool) {
		if int(tid) >= len(tuples) || tuples[tid].IsEmpty() {
			return 0, false
		}
		if c > 0 {
			return windowProb(q, tuples[tid], c), true
		}
		return eqProb(q, tuples[tid]), true
	}
}
