package core

import (
	"testing"

	"repro/internal/platform"
)

// The ablation tests pin down that each design lever has measurable effect
// in the direction DESIGN.md claims. The root benchmarks quantify the same
// levers on the full evaluation workloads.

func TestAblationHierarchyMatters(t *testing.T) {
	pf := platform.ConfigA()
	g := buildGraph(t, hotLoopSrc)
	main := platform.ScenarioAccelerator.MainClass(pf)
	hier, err := Parallelize(g, pf, main, Heterogeneous, Config{})
	if err != nil {
		t.Fatalf("hier: %v", err)
	}
	flat, err := Parallelize(g, pf, main, Heterogeneous, Config{DisableHierarchy: true})
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	if hier.Best.TimeNs >= flat.Best.TimeNs {
		t.Errorf("hierarchical decomposition should win: hier=%.0f flat=%.0f",
			hier.Best.TimeNs, flat.Best.TimeNs)
	}
}

func TestAblationTimeoutDegradesGracefully(t *testing.T) {
	// Even with a brutally small solver budget, the tool must return a
	// valid (possibly sequential) solution, never an error.
	pf := platform.ConfigA()
	g := buildGraph(t, independentWorkSrc)
	main := platform.ScenarioAccelerator.MainClass(pf)
	res, err := Parallelize(g, pf, main, Heterogeneous, Config{MaxILPNodes: 1, ILPWorkBudget: 1})
	if err != nil {
		t.Fatalf("tiny budget: %v", err)
	}
	seq := res.SequentialTimeNs(g)
	if res.Best.TimeNs > seq*1.0001 {
		t.Errorf("degraded solution (%.0f) worse than sequential (%.0f)", res.Best.TimeNs, seq)
	}
}

func TestStatsAccumulateAcrossRuns(t *testing.T) {
	pf := platform.ConfigB()
	g := buildGraph(t, hotLoopSrc)
	res, err := Parallelize(g, pf, 0, Heterogeneous, Config{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if res.Stats.NumILPs == 0 || res.Stats.NumVars == 0 || res.Stats.NumConstraints == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
	if res.Stats.SolveTime <= 0 {
		t.Errorf("solve time not recorded")
	}
}

// TestHierarchicalComplexityGrowsLinearly checks the paper's Section IV-L
// claim: thanks to the hierarchical decomposition, the number of generated
// ILPs grows linearly with the number of statements, not combinatorially.
func TestHierarchicalComplexityGrowsLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("solves many ILPs")
	}
	pf := platform.ConfigA()
	gen := func(k int) string {
		src := "float a[256];\nvoid main(void) {\n"
		for i := 0; i < k; i++ {
			src += "    for (int i = 0; i < 256; i++) { a[i] = a[i] + i * 0.5; }\n"
		}
		return src + "}\n"
	}
	count := func(k int) int {
		g := buildGraph(t, gen(k))
		res, err := Parallelize(g, pf, 0, Heterogeneous, Config{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		return res.Stats.NumILPs
	}
	n2 := count(2)
	n4 := count(4)
	n8 := count(8)
	t.Logf("ILPs for 2/4/8 loops: %d / %d / %d", n2, n4, n8)
	// Linear growth: doubling the statement count at most ~doubles the ILP
	// count (with a generous constant for per-level overhead).
	if n4 > 3*n2 || n8 > 3*n4 {
		t.Errorf("ILP count grows superlinearly: %d -> %d -> %d", n2, n4, n8)
	}
}
