package ilp

import (
	"math"
	"testing"
)

// tasksBases returns the compiled tasks region model and bases its cold
// solve passes through, from the slack-heavy start to mid-solve.
func tasksBases(tb testing.TB) (*prob, [][]int) {
	return captureBases(loadModel(tb, tasksModelPath), []int{24, 48, 96, 150, 250, 400})
}

// BenchmarkLUFactorize times one refactorization of a tasks-model basis
// (cycling over the captured bases) once the factor's workspace has
// grown to hold them all, as in a running simplex.
func BenchmarkLUFactorize(b *testing.B) {
	p, bases := tasksBases(b)
	var f luFactor
	for _, basis := range bases {
		if err := f.factorize(p, basis); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.factorize(p, bases[i%len(bases)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLUFtran times FTRAN of an entering structural column through
// a fresh factorization of a mid-solve tasks-model basis.
func BenchmarkLUFtran(b *testing.B) {
	p, bases := tasksBases(b)
	var f luFactor
	if err := f.factorize(p, bases[len(bases)-1]); err != nil {
		b.Fatal(err)
	}
	x := make([]float64, p.m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.gatherCol(i%p.nStruct, x)
		f.ftran(x)
	}
}

// BenchmarkLUBtran times BTRAN of a unit row vector — the pricing
// right-hand side of every dual simplex iteration — through the same
// factorization.
func BenchmarkLUBtran(b *testing.B) {
	p, bases := tasksBases(b)
	var f luFactor
	if err := f.factorize(p, bases[len(bases)-1]); err != nil {
		b.Fatal(err)
	}
	x := make([]float64, p.m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range x {
			x[k] = 0
		}
		x[i%p.m] = 1
		f.btran(x)
	}
}

// TestLUSteadyStateAllocs: once a factor has seen the bases it cycles
// through, refactorizing, FTRAN, BTRAN and eta updates allocate nothing.
func TestLUSteadyStateAllocs(t *testing.T) {
	p, bases := tasksBases(t)
	var f luFactor
	x := make([]float64, p.m)
	round := func(i int) {
		if err := f.factorize(p, bases[i%len(bases)]); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < refactorEvery; u++ {
			p.gatherCol((i+7*u)%p.nStruct, x)
			f.ftran(x)
			r := 0
			for k, v := range x {
				if math.Abs(v) > math.Abs(x[r]) {
					r = k
				}
			}
			f.update(x, r)
			for k := range x {
				x[k] = 0
			}
			x[(i+u)%p.m] = 1
			f.btran(x)
		}
	}
	for i := range bases {
		round(i)
	}
	n := 0
	if allocs := testing.AllocsPerRun(2*len(bases), func() { round(n); n++ }); allocs != 0 {
		t.Errorf("steady-state factorize/ftran/btran/update: %v allocs per round, want 0", allocs)
	}
}
