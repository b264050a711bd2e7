package ilp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestSimpleLP(t *testing.T) {
	// min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2  -> x=2..3? optimum x=2,y=2? obj...
	// LP optimum: y=2 (coeff -2), then x <= 2 -> x=2, obj=-6.
	m := NewModel()
	x := m.AddVar("x", 0, 3, -1)
	y := m.AddVar("y", 0, 2, -2)
	m.AddCons("cap", []Term{{x, 1}, {y, 1}}, LE, 4)
	res := solveLP(m, nil, nil)
	if res.Status != LPOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Obj-(-6)) > 1e-6 {
		t.Errorf("obj = %g, want -6 (x=%v)", res.Obj, res.X)
	}
}

func TestLPEquality(t *testing.T) {
	// min x + y s.t. x + 2y = 4, x - y >= -1  ->  y=(x+1)... optimum:
	// from x=4-2y, obj=4-y, maximize y; x-y>=-1 -> 4-3y>=-1 -> y<=5/3.
	// obj = 4-5/3 = 7/3.
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), 1)
	y := m.AddVar("y", 0, math.Inf(1), 1)
	m.AddCons("eq", []Term{{x, 1}, {y, 2}}, EQ, 4)
	m.AddCons("ge", []Term{{x, 1}, {y, -1}}, GE, -1)
	res := solveLP(m, nil, nil)
	if res.Status != LPOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Obj-7.0/3.0) > 1e-6 {
		t.Errorf("obj = %g, want %g (x=%v)", res.Obj, 7.0/3.0, res.X)
	}
}

func TestLPInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, 1, 1)
	m.AddCons("c1", []Term{{x, 1}}, GE, 2)
	res := solveLP(m, nil, nil)
	if res.Status != LPInfeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), -1)
	y := m.AddVar("y", 0, math.Inf(1), 0)
	m.AddCons("c1", []Term{{x, 1}, {y, -1}}, LE, 1)
	res := solveLP(m, nil, nil)
	if res.Status != LPUnbounded {
		t.Fatalf("status %v, want unbounded", res.Status)
	}
}

func TestLPNegativeLowerBounds(t *testing.T) {
	// min x with x >= -5 (shifted bounds path).
	m := NewModel()
	x := m.AddVar("x", -5, 10, 1)
	m.AddCons("c", []Term{{x, 1}}, GE, -3)
	res := solveLP(m, nil, nil)
	if res.Status != LPOptimal || math.Abs(res.X[0]-(-3)) > 1e-6 {
		t.Fatalf("got %v x=%v, want x=-3", res.Status, res.X)
	}
}

func TestKnapsackMILP(t *testing.T) {
	// Classic 0/1 knapsack: values 60,100,120, weights 10,20,30, cap 50.
	// Optimum = 220 (items 2 and 3). Minimize negative value.
	m := NewModel()
	vals := []float64{60, 100, 120}
	wts := []float64{10, 20, 30}
	ids := make([]VarID, 3)
	terms := make([]Term, 3)
	for i := range vals {
		ids[i] = m.AddBinary("item", -vals[i])
		terms[i] = Term{ids[i], wts[i]}
	}
	m.AddCons("cap", terms, LE, 50)
	res := Solve(m, Options{})
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Obj-(-220)) > 1e-6 {
		t.Errorf("obj = %g, want -220 (x=%v)", res.Obj, res.X)
	}
	if res.X[0] != 0 || res.X[1] != 1 || res.X[2] != 1 {
		t.Errorf("selection = %v, want [0 1 1]", res.X)
	}
}

func TestMILPInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 1)
	m.AddCons("c1", []Term{{x, 1}, {y, 1}}, GE, 3)
	res := Solve(m, Options{})
	if res.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestMILPMixed(t *testing.T) {
	// min y - 2b   s.t. y >= 1.5 b, y <= 4; b binary.
	// b=1: y=1.5, obj=-0.5. b=0: y=0, obj=0. Optimum -0.5.
	m := NewModel()
	y := m.AddVar("y", 0, 4, 1)
	b := m.AddBinary("b", -2)
	m.AddCons("link", []Term{{y, 1}, {b, -1.5}}, GE, 0)
	res := Solve(m, Options{})
	if res.Status != StatusOptimal || math.Abs(res.Obj-(-0.5)) > 1e-6 {
		t.Fatalf("status %v obj %g, want optimal -0.5", res.Status, res.Obj)
	}
}

func TestGeneralIntegerVar(t *testing.T) {
	// max 3x+2y (as min of negative) with x,y integer, x+y <= 4.7,
	// 2x + y <= 6.3 -> candidates: x=2? 2x+y<=6.3 -> y<=2.3 -> y=2;
	// x+y=4<=4.7 ok; obj=10. x=3: y<=0.3 -> 0, obj 9. So optimum 10.
	m := NewModel()
	x := m.AddInt("x", 0, 10, -3)
	y := m.AddInt("y", 0, 10, -2)
	m.AddCons("c1", []Term{{x, 1}, {y, 1}}, LE, 4.7)
	m.AddCons("c2", []Term{{x, 2}, {y, 1}}, LE, 6.3)
	res := Solve(m, Options{})
	if res.Status != StatusOptimal || math.Abs(res.Obj-(-10)) > 1e-6 {
		t.Fatalf("status %v obj %g x %v, want -10", res.Status, res.Obj, res.X)
	}
}

// bruteForceBinary enumerates all binary assignments; continuous vars must
// be absent. Returns best objective or +inf when infeasible everywhere.
func bruteForceBinary(m *Model) (float64, []float64) {
	n := len(m.Vars)
	best := math.Inf(1)
	var bestX []float64
	x := make([]float64, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if err := m.Feasible(x, 1e-9); err == nil {
				if obj := m.Objective(x); obj < best {
					best = obj
					bestX = append([]float64(nil), x...)
				}
			}
			return
		}
		for _, v := range []float64{0, 1} {
			x[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return best, bestX
}

func randomBinaryModel(rng *rand.Rand) *Model {
	m := NewModel()
	n := 3 + rng.Intn(6) // 3..8 binaries
	ids := make([]VarID, n)
	for i := 0; i < n; i++ {
		ids[i] = m.AddBinary("b", float64(rng.Intn(21)-10))
	}
	nc := 1 + rng.Intn(5)
	for c := 0; c < nc; c++ {
		var terms []Term
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, Term{ids[i], float64(rng.Intn(11) - 5)})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{ids[0], 1}}
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(13) - 4)
		m.AddCons("c", terms, sense, rhs)
	}
	return m
}

func TestRandomBinaryAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 300; trial++ {
		m := randomBinaryModel(rng)
		want, _ := bruteForceBinary(m)
		res := Solve(m, Options{})
		if math.IsInf(want, 1) {
			if res.Status != StatusInfeasible {
				t.Fatalf("trial %d: brute force infeasible but solver says %v (obj %g)\n%s",
					trial, res.Status, res.Obj, m.WriteLP())
			}
			continue
		}
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, want optimal\n%s", trial, res.Status, m.WriteLP())
		}
		if math.Abs(res.Obj-want) > 1e-6 {
			t.Fatalf("trial %d: obj %g, brute force %g\n%s", trial, res.Obj, want, m.WriteLP())
		}
		if err := m.Feasible(res.X, 1e-6); err != nil {
			t.Fatalf("trial %d: solution infeasible: %v", trial, err)
		}
	}
}

func TestRandomLPFeasibilityAndBounds(t *testing.T) {
	// Property: for random LPs with bounded vars, if the solver reports
	// optimal, the point satisfies all constraints and no better vertex
	// exists among random feasible samples.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		m := NewModel()
		n := 2 + rng.Intn(5)
		ids := make([]VarID, n)
		for i := 0; i < n; i++ {
			ids[i] = m.AddVar("x", 0, float64(1+rng.Intn(10)), float64(rng.Intn(11)-5))
		}
		for c := 0; c < 1+rng.Intn(4); c++ {
			var terms []Term
			for i := 0; i < n; i++ {
				terms = append(terms, Term{ids[i], float64(rng.Intn(9) - 4)})
			}
			m.AddCons("c", terms, []Sense{LE, GE}[rng.Intn(2)], float64(rng.Intn(21)-5))
		}
		res := solveLP(m, nil, nil)
		if res.Status == LPIterLimit {
			t.Fatalf("trial %d: iteration limit on a tiny LP", trial)
		}
		if res.Status != LPOptimal {
			continue
		}
		if err := m.Feasible(res.X, 1e-5); err != nil {
			t.Fatalf("trial %d: optimal point infeasible: %v", trial, err)
		}
		// Sample random feasible points; none may beat the optimum.
		for s := 0; s < 200; s++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.Float64() * m.Vars[i].Hi
			}
			if m.Feasible(x, 1e-9) == nil && m.Objective(x) < res.Obj-1e-5 {
				t.Fatalf("trial %d: sampled point beats 'optimum': %g < %g", trial, m.Objective(x), res.Obj)
			}
		}
	}
}

func TestBigMPredecessorPattern(t *testing.T) {
	// The parallelizer's accumulated-cost pattern:
	// acc_t >= cost_t + acc_u - M(1 - pred) with binary pred. With pred
	// forced to 1 the chain must hold; with 0 it must not constrain.
	const M = 1e6
	m := NewModel()
	accU := m.AddVar("accU", 0, math.Inf(1), 0)
	accT := m.AddVar("accT", 0, math.Inf(1), 1)
	pred := m.AddBinary("pred", 0)
	m.AddCons("baseU", []Term{{accU, 1}}, GE, 10)
	// accT >= 5 + accU - M(1-pred)  <=>  accT - accU - M*pred >= 5 - M
	m.AddCons("chain", []Term{{accT, 1}, {accU, -1}, {pred, -M}}, GE, 5-M)
	m.AddCons("force", []Term{{pred, 1}}, EQ, 1)
	res := Solve(m, Options{})
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Obj-15) > 1e-4 {
		t.Errorf("obj = %g, want 15 (acc chained)", res.Obj)
	}
}

func TestIncumbentPruning(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", -1)
	y := m.AddBinary("y", -1)
	m.AddCons("c", []Term{{x, 1}, {y, 1}}, LE, 1)
	res := Solve(m, Options{Incumbent: []float64{1, 0}})
	if res.Status != StatusOptimal || math.Abs(res.Obj+1) > 1e-9 {
		t.Fatalf("status %v obj %g", res.Status, res.Obj)
	}
}

func TestBudgetReturnsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewModel()
	// A chunky random knapsack-ish model.
	var terms []Term
	for i := 0; i < 40; i++ {
		id := m.AddBinary("b", -float64(1+rng.Intn(100)))
		terms = append(terms, Term{id, float64(1 + rng.Intn(50))})
	}
	m.AddCons("cap", terms, LE, 300)
	res := Solve(m, Options{WorkBudget: 1, Incumbent: make([]float64, 40)})
	if res.Status != StatusFeasible {
		t.Fatalf("status %v, want feasible (budget spent by the root relaxation)", res.Status)
	}
}

func TestModelValidate(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 5, 1, 0)
	_ = x
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "lower bound") {
		t.Errorf("crossed bounds not caught: %v", err)
	}
	m2 := NewModel()
	m2.AddCons("c", []Term{{VarID(3), 1}}, LE, 1)
	if err := m2.Validate(); err == nil {
		t.Errorf("unknown var not caught")
	}
}

func TestWriteLP(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("use task", -3)
	y := m.AddVar("slack#1", 0, 5, 1)
	m.AddCons("limit", []Term{{x, 2}, {y, -1}}, LE, 1)
	lp := m.WriteLP()
	for _, want := range []string{"min:", "use_task", "slack_1", "<= 1;", "bin use_task;"} {
		if !strings.Contains(lp, want) {
			t.Errorf("LP output missing %q:\n%s", want, lp)
		}
	}
}

func TestMergeTerms(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, 1, 0)
	m.AddCons("c", []Term{{x, 1}, {x, 2}, {x, -3}}, LE, 1)
	if len(m.Cons[0].Terms) != 0 {
		t.Errorf("terms should cancel: %v", m.Cons[0].Terms)
	}
}

func TestDegenerateCyclingGuard(t *testing.T) {
	// Beale's classic cycling example for textbook simplex; Bland's rule
	// must terminate it.
	m := NewModel()
	x1 := m.AddVar("x1", 0, math.Inf(1), -0.75)
	x2 := m.AddVar("x2", 0, math.Inf(1), 150)
	x3 := m.AddVar("x3", 0, math.Inf(1), -0.02)
	x4 := m.AddVar("x4", 0, math.Inf(1), 6)
	m.AddCons("r1", []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	m.AddCons("r2", []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	m.AddCons("r3", []Term{{x3, 1}}, LE, 1)
	res := solveLP(m, nil, nil)
	if res.Status != LPOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Obj-(-0.05)) > 1e-6 {
		t.Errorf("obj = %g, want -0.05", res.Obj)
	}
}
