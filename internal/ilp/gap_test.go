package ilp

import (
	"math"
	"testing"
)

// The final-gap contract: Result.Gap is recomputed on every exit path —
// zero on proven optimality, the distance to the best remaining frontier
// (or iteration-capped) bound on any truncated exit.

// TestGapZeroOnOptimal: proving optimality must report a zero gap.
func TestGapZeroOnOptimal(t *testing.T) {
	m := BenchKnapsackModel(24, 3)
	res := Solve(m, Options{})
	if res.Status != StatusOptimal {
		t.Fatalf("status %v, want optimal", res.Status)
	}
	if res.Gap != 0 {
		t.Errorf("optimal solve reported gap %g, want 0", res.Gap)
	}
}

// TestGapOnNodeCap: a search truncated by MaxNodes with an incumbent in
// hand must flag NodeCapped and report a positive, finite gap derived
// from the remaining frontier.
func TestGapOnNodeCap(t *testing.T) {
	m := BenchKnapsackModel(60, 7)
	res := Solve(m, Options{MaxNodes: 40})
	if res.Status != StatusFeasible {
		t.Fatalf("status %v, want feasible (truncated)", res.Status)
	}
	if !res.NodeCapped {
		t.Error("NodeCapped not set on MaxNodes truncation")
	}
	if !(res.Gap > 0) || res.Gap > 10 {
		t.Errorf("truncated exit gap %g, want in (0, 10]", res.Gap)
	}
}

// TestGapOnRelGapExit: stopping at a target gap must report a gap no
// worse than the target.
func TestGapOnRelGapExit(t *testing.T) {
	m := BenchChunkModel()
	res := Solve(m, Options{MaxNodes: 3000, RelGap: 0.25})
	if res.Status != StatusFeasible && res.Status != StatusOptimal {
		t.Fatalf("status %v, want a solution", res.Status)
	}
	if res.Status == StatusFeasible && res.Gap > 0.25+1e-9 {
		t.Errorf("RelGap=0.25 exit reported gap %g", res.Gap)
	}
	if res.Status == StatusOptimal && res.Gap != 0 {
		t.Errorf("optimal exit reported gap %g, want 0", res.Gap)
	}
}

// TestGapOnBudget: a work budget exhausted by the root relaxation, with
// a seeded incumbent, must return the incumbent as feasible, flag the
// budget stop, and report the gap against the root bound rather than a
// stale zero.
func TestGapOnBudget(t *testing.T) {
	m := BenchKnapsackModel(40, 11)
	opt := Solve(m, Options{})
	if opt.Status != StatusOptimal {
		t.Fatalf("reference solve: %v", opt.Status)
	}
	res := Solve(m, Options{WorkBudget: 1, Incumbent: opt.X})
	if res.Status != StatusFeasible {
		t.Fatalf("status %v, want feasible from seeded incumbent", res.Status)
	}
	if !res.BudgetExhausted {
		t.Error("BudgetExhausted not set on an exhausted budget")
	}
	if res.Nodes != 0 || res.LPIters != res.LPItersRoot {
		t.Errorf("search continued past the root: %d nodes, %d of %d LP iterations at the root",
			res.Nodes, res.LPItersRoot, res.LPIters)
	}
	root := SolveRelaxation(m)
	want := (res.Obj - root.Obj) / math.Abs(res.Obj)
	if math.Abs(res.Gap-want) > 1e-12 || res.Gap < 0 {
		t.Errorf("budget exit gap %g, want %g (seeded incumbent %g against root bound %g)",
			res.Gap, want, res.Obj, root.Obj)
	}
}
