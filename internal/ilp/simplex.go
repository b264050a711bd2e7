package ilp

import "fmt"

// LPStatus is the outcome of an LP relaxation solve.
type LPStatus int

// LP outcomes.
const (
	LPOptimal LPStatus = iota
	LPInfeasible
	LPUnbounded
	LPIterLimit
)

// String names the status.
func (s LPStatus) String() string {
	switch s {
	case LPOptimal:
		return "optimal"
	case LPInfeasible:
		return "infeasible"
	case LPUnbounded:
		return "unbounded"
	case LPIterLimit:
		return "iteration-limit"
	case lpFailed:
		return "failed"
	}
	return fmt.Sprintf("LPStatus(%d)", int(s))
}

// LPResult carries the relaxation optimum.
type LPResult struct {
	Status LPStatus
	X      []float64 // values in original variable space
	Obj    float64
	Iters  int
}

const (
	epsFeas  = 1e-7 // feasibility tolerance
	epsPivot = 1e-9 // minimum pivot magnitude
	epsCost  = 1e-9 // reduced-cost optimality tolerance
	// epsDualPivot is the dual ratio test's pivot-stability floor. A
	// priced entry in (epsPivot, epsDualPivot] is dominated by the
	// rounding error of BTRAN-then-dot pricing — selecting it routinely
	// picks columns whose FTRAN'd value comes back below epsPivot,
	// forcing a refactorize-and-retry loop that reproduces the same
	// disagreement forever. Candidates above the floor are therefore
	// preferred; the weak ones stay available as a fallback so the floor
	// never manufactures an infeasibility verdict.
	epsDualPivot = 1e-7
)

// SolveRelaxation solves the LP relaxation of mod with its own bounds
// (exported for diagnostics and tests).
func SolveRelaxation(mod *Model) LPResult { return solveLP(mod, nil, nil) }

// mergeBounds combines the model bounds with per-node overrides
// (overrides only ever tighten). Returns false when a variable's range
// becomes empty.
func mergeBounds(mod *Model, loOv, hiOv []float64) (lo, hi []float64, ok bool) {
	n := len(mod.Vars)
	lo = make([]float64, n)
	hi = make([]float64, n)
	for i, v := range mod.Vars {
		lo[i], hi[i] = v.Lo, v.Hi
		if loOv != nil && loOv[i] > lo[i] {
			lo[i] = loOv[i]
		}
		if hiOv != nil && hiOv[i] < hi[i] {
			hi[i] = hiOv[i]
		}
		if lo[i] > hi[i]+epsFeas {
			return nil, nil, false
		}
	}
	return lo, hi, true
}

// solveLP solves the LP relaxation of mod with the given bound overrides
// (nil to use model bounds). It compiles the model and solves cold; the
// branch-and-bound hot path keeps a compiled problem and warm-starts
// instead of calling this.
func solveLP(mod *Model, loOv, hiOv []float64) LPResult {
	lo, hi, ok := mergeBounds(mod, loOv, hiOv)
	if !ok {
		return LPResult{Status: LPInfeasible}
	}
	s := newLPSolver(compile(mod))
	s.setBounds(lo, hi)
	st := s.solveCold()
	if st == lpFailed {
		st = LPIterLimit
	}
	return s.result(st)
}
