package ilp

// The dense Doolittle LU this package shipped before the factors were
// stored sparsely, kept verbatim (modulo the type name) as a test-only
// reference. The production factorization must pick the same pivots
// and compute the same values: the suite below factorizes bases drawn
// from real solves and synthetic corner cases with both and requires
// equal pivot sequences, equal singular verdicts, and FTRAN/BTRAN
// results equal bit for bit (a zero may differ in sign), with eta
// updates interleaved up to refactorEvery.

import (
	"bufio"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// denseLU maintains an invertible representation of the simplex basis
// matrix B: a dense LU factorization with partial pivoting, plus a
// product-form eta file for the pivots applied since the last
// refactorization. FTRAN solves Bx = v, BTRAN solves Bᵀy = v.
//
// The basis dimension is the row count m, which for the parallelizer's
// region models is a few hundred at most, so a dense O(m³/3) refactor
// every refactorEvery pivots and O(m²) triangular solves are cheap — the
// former dense tableau was O(m·n) per pivot over the full column space.
type denseLU struct {
	m    int
	lu   []float64 // m×m row-major, L (unit diag) and U in place
	lut  []float64 // transpose of lu: row k holds column k of L and U
	piv  []int     // row swaps applied during factorization
	etas []etaVec
	// etaIdx/etaVal back every eta's idx/val slices; truncated (not
	// freed) at refactorization so steady-state updates allocate nothing.
	etaIdx []int32
	etaVal []float64
}

// factorize computes the LU decomposition of the basis given by cols
// (one column index per row) gathered from p. Existing etas are dropped.
func (f *denseLU) factorize(p *prob, basis []int) error {
	m := p.m
	f.m = m
	if cap(f.lu) < m*m {
		f.lu = make([]float64, m*m)
	}
	f.lu = f.lu[:m*m]
	for i := range f.lu {
		f.lu[i] = 0
	}
	if cap(f.piv) < m {
		f.piv = make([]int, m)
	}
	f.piv = f.piv[:m]
	f.etas = f.etas[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	// Gather basis columns: lu[i*m+k] = A[i][basis[k]].
	for k, j := range basis {
		if r, ok := p.slackCol(j); ok {
			f.lu[r*m+k] = 1
			continue
		}
		for at := p.colPtr[j]; at < p.colPtr[j+1]; at++ {
			f.lu[int(p.rowIdx[at])*m+k] = p.colVal[at]
		}
	}
	// Doolittle with partial pivoting.
	for k := 0; k < m; k++ {
		pr, pv := k, math.Abs(f.lu[k*m+k])
		for i := k + 1; i < m; i++ {
			if a := math.Abs(f.lu[i*m+k]); a > pv {
				pr, pv = i, a
			}
		}
		if pv < 1e-11 {
			return errSingular
		}
		f.piv[k] = pr
		if pr != k {
			rk, rp := f.lu[k*m:k*m+m], f.lu[pr*m:pr*m+m]
			for j := 0; j < m; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		inv := 1 / f.lu[k*m+k]
		for i := k + 1; i < m; i++ {
			l := f.lu[i*m+k] * inv
			if l == 0 {
				continue
			}
			f.lu[i*m+k] = l
			ri, rk := f.lu[i*m:i*m+m], f.lu[k*m:k*m+m]
			for j := k + 1; j < m; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	// Transposed copy: the triangular solves below walk columns of L/U
	// in scatter form, which become contiguous rows of lut.
	if cap(f.lut) < m*m {
		f.lut = make([]float64, m*m)
	}
	f.lut = f.lut[:m*m]
	const tb = 32 // cache-blocked transpose
	for ib := 0; ib < m; ib += tb {
		ie := ib + tb
		if ie > m {
			ie = m
		}
		for jb := 0; jb < m; jb += tb {
			je := jb + tb
			if je > m {
				je = m
			}
			for i := ib; i < ie; i++ {
				for j := jb; j < je; j++ {
					f.lut[j*m+i] = f.lu[i*m+j]
				}
			}
		}
	}
	return nil
}

// luSolve solves (LU)x = Pv in place. Both triangular phases run in
// scatter (outer-product) form over rows of the transposed factor:
// column k of L/U is contiguous in lut, and a zero intermediate skips
// its whole column update. Simplex right-hand sides are sparse (the
// entering column for FTRAN), so most columns are skipped outright.
func (f *denseLU) luSolve(x []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// L y = Pv: y[k] known once reached; scatter down column k.
	for k := 0; k < m-1; k++ {
		t := x[k]
		if t == 0 {
			continue
		}
		ck := f.lut[k*m : k*m+m]
		for i := k + 1; i < m; i++ {
			x[i] -= ck[i] * t
		}
	}
	// U x = y: backward scatter up column k.
	for k := m - 1; k >= 0; k-- {
		t := x[k]
		if t == 0 {
			continue
		}
		ck := f.lut[k*m : k*m+k]
		t /= f.lut[k*m+k]
		x[k] = t
		for i := 0; i < k; i++ {
			x[i] -= ck[i] * t
		}
	}
}

// luSolveT solves (LU)ᵀw = v and applies Pᵀ in place. Scatter form over
// rows of lu: row k of U (resp. L) is column k of Uᵀ (resp. Lᵀ), so both
// phases get contiguous access plus the zero-skip — BTRAN right-hand
// sides are unit vectors, making the skip the common case.
func (f *denseLU) luSolveT(x []float64) {
	m := f.m
	// Uᵀ z = v: forward scatter along row k of U.
	for k := 0; k < m; k++ {
		t := x[k]
		if t == 0 {
			continue
		}
		rk := f.lu[k*m : k*m+m]
		t /= rk[k]
		x[k] = t
		for i := k + 1; i < m; i++ {
			x[i] -= rk[i] * t
		}
	}
	// Lᵀ w = z: backward scatter along row k of L (unit diagonal).
	for k := m - 1; k > 0; k-- {
		t := x[k]
		if t == 0 {
			continue
		}
		rk := f.lu[k*m : k*m+k]
		for i := 0; i < k; i++ {
			x[i] -= rk[i] * t
		}
	}
	for k := m - 1; k >= 0; k-- {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
}

// ftran solves B x = v in place (LU solve, then the eta file in order).
func (f *denseLU) ftran(x []float64) {
	f.luSolve(x)
	for e := range f.etas {
		ev := &f.etas[e]
		t := x[ev.r] / ev.diag
		if t != 0 {
			for k, i := range ev.idx {
				x[i] -= ev.val[k] * t
			}
		}
		x[ev.r] = t
	}
}

// btran solves Bᵀ y = v in place (eta file transposed in reverse order,
// then the LU transpose solve).
func (f *denseLU) btran(x []float64) {
	for e := len(f.etas) - 1; e >= 0; e-- {
		ev := &f.etas[e]
		s := x[ev.r]
		for k, i := range ev.idx {
			s -= ev.val[k] * x[i]
		}
		x[ev.r] = s / ev.diag
	}
	f.luSolveT(x)
}

// update appends the pivot (entering column w = B⁻¹a_q replacing basis
// row r) to the eta file. Returns false when the pivot is numerically
// unusable or the eta file is full — the caller must refactorize.
func (f *denseLU) update(w []float64, r int) bool {
	if len(f.etas) >= refactorEvery {
		return false
	}
	if math.Abs(w[r]) < 1e-9 {
		return false
	}
	start := len(f.etaIdx)
	for i, v := range w {
		if i != r && v != 0 {
			f.etaIdx = append(f.etaIdx, int32(i))
			f.etaVal = append(f.etaVal, v)
		}
	}
	// Slices into the arena stay valid across later appends: growth
	// reallocates the arena but earlier etas keep the old backing array.
	f.etas = append(f.etas, etaVec{r: r, diag: w[r], idx: f.etaIdx[start:len(f.etaIdx):len(f.etaIdx)], val: f.etaVal[start:len(f.etaVal):len(f.etaVal)]})
	return true
}

// loadModel reads a model in the line format of testdata/*.txt:
// "v kind lo hi obj priority" per variable, then "c sense rhs var:coeff
// ..." per constraint, numbers in Go's shortest round-trip form.
func loadModel(tb testing.TB, path string) *Model {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		return v
	}
	m := NewModel()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		switch {
		case len(fs) == 6 && fs[0] == "v":
			m.Vars = append(m.Vars, Var{Kind: VarKind(num(fs[1])), Lo: num(fs[2]),
				Hi: num(fs[3]), Obj: num(fs[4]), Priority: int(num(fs[5]))})
		case len(fs) >= 3 && fs[0] == "c":
			var terms []Term
			for _, t := range fs[3:] {
				v, c, _ := strings.Cut(t, ":")
				terms = append(terms, Term{VarID(num(v)), num(c)})
			}
			m.AddCons("", terms, Sense(num(fs[1])), num(fs[2]))
		default:
			tb.Fatalf("%s: bad line %q", path, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return m
}

// tasksModelPath is the root-level tasks model (Eq. 1-18) of the
// compress benchmark on config A, accelerator scenario, main class 0,
// four tasks: 162 variables, 392 constraints, as the parallelizer
// builds it for its costliest solves.
const tasksModelPath = "testdata/tasks_compress_main.txt"

// captureBases returns the bases a cold solve of mod passes through:
// the basis after the first c dual-simplex iterations, for each c in
// caps (the path to c iterations is a prefix of the full solve's).
func captureBases(mod *Model, caps []int) (*prob, [][]int) {
	p := compile(mod)
	var out [][]int
	for _, c := range caps {
		s := newLPSolver(p)
		s.setBounds(nil, nil)
		s.iterCap = c
		s.solveCold()
		out = append(out, append([]int(nil), s.basis...))
	}
	return p, out
}

// basisSet is a compiled model with bases drawn from its solve.
type basisSet struct {
	name  string
	p     *prob
	bases [][]int
}

// solveBases draws bases from the solves of the benchmark models and
// the region model. The iteration caps cover the slack-heavy start
// (1–8), bases within and at the end of the first eta file (24–96),
// and later mid-solve bases up to, past the solve's length, the final
// one.
func solveBases(tb testing.TB) []basisSet {
	caps := []int{1, 3, 8, 24, 48, 72, 96, 150, 250, 400, 800}
	var out []basisSet
	for _, c := range []struct {
		name string
		mod  *Model
	}{
		{"chunk", BenchChunkModel()},
		{"knapsack", BenchKnapsackModel(60, 7)},
		{"assignment", BenchAssignmentModel(14, 4, 3)},
		{"tasks", loadModel(tb, tasksModelPath)},
	} {
		p, bases := captureBases(c.mod, caps)
		out = append(out, basisSet{c.name, p, bases})
	}
	return out
}

// sameBits reports whether a and b are the same float64, counting +0
// and -0 as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

func sameVec(t *testing.T, what string, got, want []float64) bool {
	t.Helper()
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Errorf("%s: entry %d = %x, dense reference %x", what, i, got[i], want[i])
			return false
		}
	}
	return true
}

// rhsSet returns the right-hand sides each solve is checked on: unit
// vectors, sparse vectors and one dense vector, drawn from seed.
func rhsSet(m int, seed uint64) [][]float64 {
	rng := seed
	draw := func() float64 {
		rng = mix64(rng)
		return float64(int64(rng>>11)%2001-1000) / 37
	}
	var out [][]float64
	for _, i := range []int{0, m / 3, m / 2, m - 1} {
		v := make([]float64, m)
		v[i] = 1
		out = append(out, v)
	}
	for n := 0; n < 3; n++ {
		v := make([]float64, m)
		for k := 0; k < 3; k++ {
			rng = mix64(rng)
			v[int(rng%uint64(m))] = draw()
		}
		out = append(out, v)
	}
	v := make([]float64, m)
	for i := range v {
		v[i] = draw()
	}
	return append(out, v)
}

// refactorSteps is how many eta updates checkAgainstDense interleaves:
// a full eta file, or an eighth of one in -short mode (the race gate).
func refactorSteps() int {
	if testing.Short() {
		return refactorEvery / 8
	}
	return refactorEvery
}

// checkAgainstDense factorizes basis with f and a fresh dense reference
// and compares them: pivots, singular verdict, then FTRAN and BTRAN on
// the rhsSet vectors before and after each of up to refactorSteps eta
// updates that pivot nonbasic columns of p into the basis. It reports
// whether the basis was singular and how many updates were compared.
func checkAgainstDense(t *testing.T, name string, f *luFactor, p *prob, basis []int) (singular bool, updates int) {
	t.Helper()
	var ref denseLU
	err, refErr := f.factorize(p, basis), ref.factorize(p, basis)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: singular verdict %v, dense reference %v", name, err, refErr)
	}
	if err != nil {
		return true, 0
	}
	for k := range ref.piv {
		if f.piv[k] != ref.piv[k] {
			t.Fatalf("%s: pivot of column %d at %d, dense reference %d", name, k, f.piv[k], ref.piv[k])
		}
	}
	m := p.m
	got, want := make([]float64, m), make([]float64, m)
	solves := func(step int) bool {
		for n, v := range rhsSet(m, uint64(step)) {
			copy(got, v)
			copy(want, v)
			f.ftran(got)
			ref.ftran(want)
			if !sameVec(t, name+" ftran", got, want) {
				t.Logf("step %d rhs %d", step, n)
				return false
			}
			copy(got, v)
			copy(want, v)
			f.btran(got)
			ref.btran(want)
			if !sameVec(t, name+" btran", got, want) {
				t.Logf("step %d rhs %d", step, n)
				return false
			}
		}
		return true
	}
	if !solves(0) {
		return false, 0
	}
	cur := append([]int(nil), basis...)
	inBasis := make([]bool, p.n)
	for _, j := range cur {
		inBasis[j] = true
	}
	w, wRef := make([]float64, m), make([]float64, m)
	q := 0
	for step := 1; step <= refactorSteps(); step++ {
		// The next nonbasic column whose FTRAN'd form has a usable pivot.
		r := -1
		for tries := 0; tries < p.n && r < 0; tries++ {
			q = (q + 7) % p.n
			if inBasis[q] {
				continue
			}
			p.gatherCol(q, w)
			copy(wRef, w)
			f.ftran(w)
			ref.ftran(wRef)
			if !sameVec(t, name+" entering column", w, wRef) {
				return false, updates
			}
			best := 1e-6
			for i, v := range w {
				if a := math.Abs(v); a > best {
					r, best = i, a
				}
			}
		}
		if r < 0 {
			return false, updates
		}
		ok, okRef := f.update(w, r), ref.update(wRef, r)
		if ok != okRef {
			t.Fatalf("%s: update %d accepted %v, dense reference %v", name, step, ok, okRef)
		}
		if !ok {
			return false, updates
		}
		updates++
		inBasis[cur[r]], inBasis[q] = false, true
		cur[r] = q
		if !solves(step) {
			return false, updates
		}
	}
	return false, updates
}

// TestSparseLUMatchesDense runs the comparison over bases from real
// solves of every benchmark model and the tasks region model, reusing
// one factor across all of them as the simplex does (including the
// switch between row counts).
func TestSparseLUMatchesDense(t *testing.T) {
	var f luFactor
	for _, c := range solveBases(t) {
		factored, updates := 0, 0
		for i, b := range c.bases {
			singular, n := checkAgainstDense(t, c.name+"/"+strconv.Itoa(i), &f, c.p, b)
			if t.Failed() {
				return
			}
			if !singular {
				factored++
			}
			updates += n
		}
		// Solve bases are never singular; the comparison must not pass
		// vacuously for want of factorizations or updates.
		if factored != len(c.bases) || updates < refactorSteps() {
			t.Errorf("%s: %d of %d bases factorized, %d updates compared",
				c.name, factored, len(c.bases), updates)
		}
	}
}

// TestSparseLUMatchesDenseSynthetic covers bases the solves rarely
// produce: random slack-heavy mixes, the same columns in permuted
// order (moving every pivot tie), and near-singular and singular bases
// around the 1e-11 pivot threshold.
func TestSparseLUMatchesDenseSynthetic(t *testing.T) {
	var f luFactor
	p := compile(loadModel(t, tasksModelPath))
	rng := uint64(11)
	pick := func(n int) int {
		rng = mix64(rng)
		return int(rng % uint64(n))
	}
	for trial := 0; trial < 40; trial++ {
		// Slack-heavy: a random share of rows takes a structural column.
		basis := make([]int, p.m)
		used := map[int]bool{}
		for i := range basis {
			basis[i] = p.nStruct + i
			if pick(100) < 10+2*trial {
				if j := pick(p.nStruct); !used[j] {
					used[j] = true
					basis[i] = j
				}
			}
		}
		checkAgainstDense(t, "slack-heavy/"+strconv.Itoa(trial), &f, p, basis)
		// Permuted: the same set of columns in shuffled order.
		for i := len(basis) - 1; i > 0; i-- {
			k := pick(i + 1)
			basis[i], basis[k] = basis[k], basis[i]
		}
		checkAgainstDense(t, "permuted/"+strconv.Itoa(trial), &f, p, basis)
		if t.Failed() {
			return
		}
	}
	// Near-singular: two columns equal up to a perturbation d, in a
	// basis of slacks. The elimination leaves d·x on the diagonal, which
	// straddles the 1e-11 singular threshold as d shrinks.
	verdicts := map[bool]int{}
	for _, d := range []float64{1e-3, 1e-9, 2e-11, 1e-11, 5e-12, 0} {
		mod := NewModel()
		x := mod.AddVar("x", 0, 1, 0)
		y := mod.AddVar("y", 0, 1, 0)
		z := mod.AddVar("z", 0, 1, 0)
		mod.AddCons("a", []Term{{x, 1}, {y, 1}, {z, 3}}, LE, 1)
		mod.AddCons("b", []Term{{x, 2}, {y, 2 + d}, {z, 3}}, LE, 1)
		mod.AddCons("c", []Term{{x, 3}, {y, 3}, {z, 3}}, LE, 1)
		mod.AddCons("d", []Term{{z, 1}}, LE, 1)
		q := compile(mod)
		singular, _ := checkAgainstDense(t, "near-singular/"+strconv.FormatFloat(d, 'g', -1, 64), &f, q,
			[]int{0, 1, q.nStruct + 2, q.nStruct + 3})
		verdicts[singular]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("near-singular bases gave verdicts %v, want both kinds", verdicts)
	}
}
