package ilp

import (
	"math"
	"reflect"
	"testing"
)

// The work-budget contract: Options.WorkBudget counts simplex pivots ×
// model rows, so a truncated search is a pure function of its inputs.

// budgetModel needs a real search: its optimal solve explores hundreds
// of nodes.
func budgetModel() *Model { return BenchKnapsackModel(60, 7) }

// work is the budget a finished solve spent.
func work(m *Model, res Result) int64 { return int64(res.LPIters) * int64(m.NumCons()) }

// TestBudgetTruncationReproducible: a budget that cuts the search in the
// middle of the best-first phase stops at the same point on every run,
// serial and parallel, and the search it stops has spent at least the
// budget.
func TestBudgetTruncationReproducible(t *testing.T) {
	m := budgetModel()
	full := Solve(m, Options{})
	if full.Status != StatusOptimal || full.Nodes < 20 {
		t.Fatalf("reference solve: %v after %d nodes, want optimal after a real search", full.Status, full.Nodes)
	}
	budget := work(m, full) / 2
	for _, workers := range []int{1, 4} {
		opt := Options{WorkBudget: budget, Workers: workers}
		first := Solve(m, opt)
		if !first.BudgetExhausted || first.Status != StatusFeasible {
			t.Fatalf("workers=%d: budget %d of %d did not truncate (status %v, exhausted %t)",
				workers, budget, work(m, full), first.Status, first.BudgetExhausted)
		}
		if got := work(m, first); got < budget {
			t.Errorf("workers=%d: stopped after %d work units, before the %d budget", workers, got, budget)
		}
		if first.Gap <= 0 || math.IsInf(first.Gap, 0) {
			t.Errorf("workers=%d: truncated gap %g, want finite and positive", workers, first.Gap)
		}
		for run := 0; run < 3; run++ {
			if again := Solve(m, opt); !reflect.DeepEqual(again, first) {
				t.Fatalf("workers=%d run %d: truncated result differs:\n%+v\nvs\n%+v", workers, run, again, first)
			}
		}
	}
}

// TestBudgetUnlimitedEqualsUnbudgeted: a budget the search never
// reaches — one unit above what the unbudgeted solve spends, or the
// largest representable — leaves every field of the result unchanged.
func TestBudgetUnlimitedEqualsUnbudgeted(t *testing.T) {
	cases := []struct {
		m   *Model
		opt Options
	}{
		{budgetModel(), Options{}},
		{BenchChunkModel(), Options{MaxNodes: 10, RelGap: 0.01}},
		{BenchAssignmentModel(6, 3, 5), Options{Workers: 2}},
	}
	for _, c := range cases {
		ref := Solve(c.m, c.opt)
		for _, budget := range []int64{work(c.m, ref) + 1, math.MaxInt64} {
			opt := c.opt
			opt.WorkBudget = budget
			if got := Solve(c.m, opt); !reflect.DeepEqual(got, ref) {
				t.Errorf("budget %d changed the result:\n%+v\nvs unbudgeted\n%+v", budget, got, ref)
			}
		}
	}
}
