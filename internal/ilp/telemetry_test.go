package ilp

import "testing"

// knapsackModel builds a small maximization-as-minimization knapsack
// with enough structure to need real branching.
func knapsackModel() *Model {
	m := NewModel()
	vals := []float64{10, 13, 7, 8, 9, 11, 6, 12}
	wts := []float64{5, 7, 3, 4, 5, 6, 2, 7}
	var terms []Term
	for i, v := range vals {
		x := m.AddBinary("x", -v) // minimize -value
		terms = append(terms, Term{Var: x, Coeff: wts[i]})
	}
	m.AddCons("cap", terms, LE, 18)
	return m
}

func TestProgressHookFires(t *testing.T) {
	m := knapsackModel()
	var incumbents, dones int
	var last ProgressEvent
	res := Solve(m, Options{
		Progress: func(ev ProgressEvent) {
			switch ev.Kind {
			case EventIncumbent:
				incumbents++
			case EventDone:
				dones++
				last = ev
			}
		},
	})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if dones != 1 {
		t.Errorf("done events = %d, want exactly 1", dones)
	}
	if incumbents == 0 {
		t.Errorf("no incumbent events fired")
	}
	if incumbents != res.Incumbents {
		t.Errorf("incumbent events = %d but Result.Incumbents = %d", incumbents, res.Incumbents)
	}
	if last.Nodes != res.Nodes || last.LPIters != res.LPIters {
		t.Errorf("done event counters (%d, %d) disagree with result (%d, %d)",
			last.Nodes, last.LPIters, res.Nodes, res.LPIters)
	}
	if last.Obj != res.Obj {
		t.Errorf("done event obj %g != result obj %g", last.Obj, res.Obj)
	}
}

func TestNodeCapReported(t *testing.T) {
	m := knapsackModel()
	// MaxNodes below the default forces truncation after the DFS phase
	// found an incumbent.
	res := Solve(m, Options{MaxNodes: 1, RelGap: -1})
	if res.Status == StatusOptimal {
		t.Skip("model solved within one node; cannot exercise the cap")
	}
	if !res.NodeCapped {
		t.Errorf("NodeCapped not set on truncated search (status %v, nodes %d)", res.Status, res.Nodes)
	}
	if res.BudgetExhausted {
		t.Errorf("BudgetExhausted set without a work budget")
	}
}

func TestBudgetStopReported(t *testing.T) {
	m := knapsackModel()
	res := Solve(m, Options{WorkBudget: 1})
	if res.BudgetExhausted != true {
		t.Errorf("BudgetExhausted not set when the root relaxation spent the budget (status %v)", res.Status)
	}
	if res.NodeCapped {
		t.Errorf("NodeCapped set spuriously")
	}
}

func TestOptimalSolveHasNoTruncationFlags(t *testing.T) {
	m := knapsackModel()
	res := Solve(m, Options{})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if res.BudgetExhausted || res.NodeCapped {
		t.Errorf("truncation flags set on a proven-optimal solve")
	}
	if res.Incumbents == 0 {
		t.Errorf("optimal solve should have found at least one incumbent")
	}
}

// BenchmarkSolveNoHook is the observability-disabled baseline: Options
// with a nil Progress hook must not add work or allocations to the
// branch-and-bound loop.
func BenchmarkSolveNoHook(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := Solve(knapsackModel(), Options{})
		if res.Status != StatusOptimal {
			b.Fatalf("status = %v", res.Status)
		}
	}
}

// BenchmarkSolveWithHook measures the same solve with a progress hook
// installed, for comparison against BenchmarkSolveNoHook.
func BenchmarkSolveWithHook(b *testing.B) {
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		res := Solve(knapsackModel(), Options{Progress: func(ProgressEvent) { events++ }})
		if res.Status != StatusOptimal {
			b.Fatalf("status = %v", res.Status)
		}
	}
	if events == 0 {
		b.Fatalf("hook never fired")
	}
}
