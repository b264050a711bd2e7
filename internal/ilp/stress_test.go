package ilp

import (
	"math"
	"math/rand"
	"testing"
)

// TestPlantedFeasibleLP generates random LPs around a planted feasible
// point, with wide coefficient magnitudes and all three senses; the solver
// must never report infeasible.
func TestPlantedFeasibleLP(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 2000; trial++ {
		m := NewModel()
		n := 2 + rng.Intn(10)
		x0 := make([]float64, n)
		for i := 0; i < n; i++ {
			hi := 1.0
			if rng.Intn(2) == 0 {
				hi = math.Inf(1)
			}
			m.AddVar("x", 0, hi, float64(rng.Intn(7)-3))
			if math.IsInf(hi, 1) {
				x0[i] = rng.Float64() * 10
			} else {
				x0[i] = rng.Float64()
			}
		}
		nc := 1 + rng.Intn(12)
		for c := 0; c < nc; c++ {
			var terms []Term
			lhs := 0.0
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					continue
				}
				mag := math.Pow(10, float64(rng.Intn(6)-1)) // 0.1 .. 1e4
				coeff := (rng.Float64()*2 - 1) * mag
				terms = append(terms, Term{VarID(i), coeff})
				lhs += coeff * x0[i]
			}
			if len(terms) == 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				m.AddCons("le", terms, LE, lhs+rng.Float64())
			case 1:
				m.AddCons("ge", terms, GE, lhs-rng.Float64())
			default:
				m.AddCons("eq", terms, EQ, lhs)
			}
		}
		res := solveLP(m, nil, nil)
		if res.Status == LPInfeasible {
			t.Fatalf("trial %d: planted-feasible LP reported infeasible\n%s\nx0=%v", trial, m.WriteLP(), x0)
		}
		if res.Status == LPIterLimit {
			t.Fatalf("trial %d: iteration limit", trial)
		}
		if res.Status == LPOptimal {
			if err := m.Feasible(res.X, 1e-5); err != nil {
				t.Fatalf("trial %d: optimal point infeasible: %v", trial, err)
			}
			// x0 is feasible, so the optimum must be at least as good.
			if res.Obj > m.Objective(x0)+1e-5*(1+math.Abs(m.Objective(x0))) {
				t.Fatalf("trial %d: obj %g worse than planted point %g", trial, res.Obj, m.Objective(x0))
			}
		}
	}
}
