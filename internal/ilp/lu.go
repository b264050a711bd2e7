package ilp

import (
	"errors"
	"math"
)

// luFactor maintains an invertible representation of the simplex basis
// matrix B: an LU factorization with partial pivoting, plus a
// product-form eta file for the pivots applied since the last
// refactorization. FTRAN solves Bx = v, BTRAN solves Bᵀy = v.
//
// The factors are stored sparsely. Region-model bases are mostly slack
// and unit columns, so L and U keep only a few percent of the m² entries
// a dense factor would hold. The elimination nevertheless follows dense
// Doolittle exactly: the same pivot in every column (largest magnitude,
// earliest position on ties) and the same floating-point operation on
// every stored entry. Only the multiplications by zero entries are
// skipped, so every solve result matches the dense factorization bit
// for bit up to the sign of zeros (luref_test.go keeps the dense
// reference and checks this).
type luFactor struct {
	m int
	// Elimination workspace. a holds the basis, then L and U in place,
	// m×m by original row (the rows never move; id/pos give the pivot
	// order). Only entries with set true are stored; rowPat/colPat list
	// them per row and per column, so the elimination and the reset at
	// the next factorization touch stored entries only.
	a      []float64
	set    []bool
	rowPat [][]int32 // row -> stored columns
	colPat [][]int32 // column -> rows storing it
	id     []int32   // position -> row
	pos    []int32   // row -> position
	kcols  []int32   // scratch: the pivot row's stored columns right of k
	piv    []int     // position swaps applied during factorization
	swaps  []int32   // the positions k with piv[k] != k, ascending
	// The nonzeros of the finished factors, indexed by position: L and
	// U by column for FTRAN's scatter, U and L by row for BTRAN's. diag
	// is U's diagonal.
	lCol, uCol, uRow, lRow sparseTri
	diag                   []float64
	etas                   []etaVec
	// etaIdx/etaVal back every eta's idx/val slices; truncated (not
	// freed) at refactorization so steady-state updates allocate nothing.
	etaIdx []int32
	etaVal []float64
}

// sparseTri is one compressed triangular factor: line k (a row or a
// column, by view) holds idx/val[ptr[k]:ptr[k+1]]. lines lists, in
// ascending order, the lines that do any arithmetic: the nonempty ones,
// plus for U every position whose diagonal is not 1. A skipped line
// would only subtract nothing or divide by one. Backward solves walk
// lines from the end. Within a line the entries may come in any order:
// each one updates a different component.
type sparseTri struct {
	ptr   []int32
	idx   []int32
	val   []float64
	lines []int32
}

// reset empties t for m lines, keeping its storage.
func (t *sparseTri) reset(m int) {
	if cap(t.ptr) < m+1 {
		t.ptr = make([]int32, m+1)
	}
	t.ptr = t.ptr[:m+1]
	t.ptr[0] = 0
	t.idx = t.idx[:0]
	t.val = t.val[:0]
	t.lines = t.lines[:0]
}

// add appends entry (i, v) to the line being built.
func (t *sparseTri) add(i int32, v float64) {
	t.idx = append(t.idx, i)
	t.val = append(t.val, v)
}

// end closes line k, listing it as working when it is nonempty or
// work is set (a non-unit U diagonal).
func (t *sparseTri) end(k int, work bool) {
	t.ptr[k+1] = int32(len(t.idx))
	if work || t.ptr[k+1] > t.ptr[k] {
		t.lines = append(t.lines, int32(k))
	}
}

// etaVec is one product-form update: after pivoting column w into basis
// row r, B_new⁻¹ = E⁻¹ B_old⁻¹ with E⁻¹ the identity except column r.
type etaVec struct {
	r    int
	diag float64 // w_r
	idx  []int32 // rows i ≠ r with w_i ≠ 0
	val  []float64
}

// refactorEvery bounds the eta file length before a fresh factorization.
// A refactorization and each triangular solve cost time in proportion
// to the factors' nonzeros, and applying an eta costs O(nnz) of that
// eta, so the eta file is allowed to grow long: the numerical-hygiene
// refresh in dual/primal catches drift well before it bites.
const refactorEvery = 96

var errSingular = errors.New("singular basis")

// factorize computes the LU decomposition of the basis given by cols
// (one column index per row) gathered from p. Existing etas are dropped.
func (f *luFactor) factorize(p *prob, basis []int) error {
	m := p.m
	f.clear(m)
	f.etas = f.etas[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	// Gather basis columns: a[i*m+k] = A[i][basis[k]].
	for k, j := range basis {
		if r, ok := p.slackCol(j); ok {
			f.store(r, k, 1)
			continue
		}
		for at := p.colPtr[j]; at < p.colPtr[j+1]; at++ {
			f.store(int(p.rowIdx[at]), k, p.colVal[at])
		}
	}
	// Doolittle with partial pivoting over the stored entries.
	for k := 0; k < m; k++ {
		// Largest |a| at positions ≥ k; the strict > keeps the diagonal,
		// and among equal candidates the earliest position, as a dense
		// top-down scan would. Rows at earlier positions hold U entries
		// of column k and take no part.
		pr, pv := k, math.Abs(f.a[int(f.id[k])*m+k])
		for _, r := range f.colPat[k] {
			ps := int(f.pos[r])
			if ps <= k {
				continue
			}
			if v := math.Abs(f.a[int(r)*m+k]); v > pv || (v == pv && ps < pr) {
				pr, pv = ps, v
			}
		}
		if pv < 1e-11 {
			return errSingular
		}
		f.piv[k] = pr
		if pr != k {
			rk, rp := f.id[k], f.id[pr]
			f.id[k], f.id[pr] = rp, rk
			f.pos[rp], f.pos[rk] = int32(k), int32(pr)
		}
		rk := int(f.id[k])
		krow := f.a[rk*m : rk*m+m]
		inv := 1 / krow[k]
		f.kcols = f.kcols[:0]
		for _, j := range f.rowPat[rk] {
			if int(j) > k {
				f.kcols = append(f.kcols, j)
			}
		}
		for _, r := range f.colPat[k] {
			if int(f.pos[r]) <= k {
				continue
			}
			ri := f.a[int(r)*m : int(r)*m+m]
			l := ri[k] * inv
			if l == 0 {
				continue
			}
			ri[k] = l
			// Only the pivot row's stored columns change row r; a fill-in
			// is 0 − l·a_kj, written as its exact negation.
			set := f.set[int(r)*m : int(r)*m+m]
			for _, j := range f.kcols {
				if set[j] {
					ri[j] -= l * krow[j]
					continue
				}
				ri[j] = -(l * krow[j])
				set[j] = true
				f.rowPat[r] = append(f.rowPat[r], j)
				f.colPat[j] = append(f.colPat[j], r)
			}
		}
	}
	f.compress()
	return nil
}

// clear readies the workspace for an m-row basis: it zeroes the entries
// the previous factorization stored (or allocates afresh when m changed)
// and resets the pivot order to the identity.
func (f *luFactor) clear(m int) {
	if m != f.m || len(f.a) != m*m {
		f.m = m
		f.a = make([]float64, m*m)
		f.set = make([]bool, m*m)
		f.piv = make([]int, m)
		f.id = make([]int32, m)
		f.pos = make([]int32, m)
		f.diag = make([]float64, m)
		f.rowPat = make([][]int32, m)
		f.colPat = make([][]int32, m)
	}
	for r := 0; r < m; r++ {
		for _, c := range f.rowPat[r] {
			f.a[r*m+int(c)] = 0
			f.set[r*m+int(c)] = false
		}
		f.rowPat[r] = f.rowPat[r][:0]
		f.colPat[r] = f.colPat[r][:0]
		f.id[r], f.pos[r] = int32(r), int32(r)
	}
}

// store sets entry (r, c) of the gathered basis.
func (f *luFactor) store(r, c int, v float64) {
	at := r*f.m + c
	if !f.set[at] {
		f.set[at] = true
		f.rowPat[r] = append(f.rowPat[r], int32(c))
		f.colPat[c] = append(f.colPat[c], int32(r))
	}
	f.a[at] = v
}

// compress extracts the nonzeros of the finished factors into the four
// position-indexed views the triangular solves walk: the row views from
// the row patterns, the column views from the column patterns. Stored
// zeros (cancellations, untouched multipliers) are dropped: subtracting
// 0·t could only change the sign of a zero.
func (f *luFactor) compress() {
	m := f.m
	f.uRow.reset(m)
	f.lRow.reset(m)
	f.uCol.reset(m)
	f.lCol.reset(m)
	f.swaps = f.swaps[:0]
	for k := 0; k < m; k++ {
		if f.piv[k] != k {
			f.swaps = append(f.swaps, int32(k))
		}
		r := int(f.id[k])
		row := f.a[r*m : r*m+m]
		f.diag[k] = row[k]
		for _, c := range f.rowPat[r] {
			switch v := row[c]; {
			case v == 0 || int(c) == k:
			case int(c) > k:
				f.uRow.add(c, v)
			default:
				f.lRow.add(c, v)
			}
		}
		f.uRow.end(k, f.diag[k] != 1)
		f.lRow.end(k, false)
	}
	for k := 0; k < m; k++ {
		for _, r := range f.colPat[k] {
			switch v, p := f.a[int(r)*m+k], f.pos[r]; {
			case v == 0 || int(p) == k:
			case int(p) < k:
				f.uCol.add(p, v)
			default:
				f.lCol.add(p, v)
			}
		}
		f.uCol.end(k, f.diag[k] != 1)
		f.lCol.end(k, false)
	}
}

// luSolve solves (LU)x = Pv in place. Both triangular phases run in
// scatter (outer-product) form down the columns of L and U: a zero
// intermediate skips its whole column update. Simplex right-hand sides
// are sparse (the entering column for FTRAN), so most columns are
// skipped outright.
func (f *luFactor) luSolve(x []float64) {
	for _, k := range f.swaps {
		p := f.piv[k]
		x[k], x[p] = x[p], x[k]
	}
	// L y = Pv: y[k] known once reached; scatter down column k.
	for _, k := range f.lCol.lines {
		t := x[k]
		if t == 0 {
			continue
		}
		lo, hi := f.lCol.ptr[k], f.lCol.ptr[k+1]
		val := f.lCol.val[lo:hi]
		for e, i := range f.lCol.idx[lo:hi] {
			x[i] -= val[e] * t
		}
	}
	// U x = y: backward scatter up column k.
	for n := len(f.uCol.lines) - 1; n >= 0; n-- {
		k := f.uCol.lines[n]
		t := x[k]
		if t == 0 {
			continue
		}
		t /= f.diag[k]
		x[k] = t
		lo, hi := f.uCol.ptr[k], f.uCol.ptr[k+1]
		val := f.uCol.val[lo:hi]
		for e, i := range f.uCol.idx[lo:hi] {
			x[i] -= val[e] * t
		}
	}
}

// luSolveT solves (LU)ᵀw = v and applies Pᵀ in place, in scatter form
// along the rows of U (resp. L) — the columns of Uᵀ (resp. Lᵀ) — with
// the same zero-skip: BTRAN right-hand sides are unit vectors, making
// the skip the common case.
func (f *luFactor) luSolveT(x []float64) {
	// Uᵀ z = v: forward scatter along row k of U.
	for _, k := range f.uRow.lines {
		t := x[k]
		if t == 0 {
			continue
		}
		t /= f.diag[k]
		x[k] = t
		lo, hi := f.uRow.ptr[k], f.uRow.ptr[k+1]
		val := f.uRow.val[lo:hi]
		for e, i := range f.uRow.idx[lo:hi] {
			x[i] -= val[e] * t
		}
	}
	// Lᵀ w = z: backward scatter along row k of L (unit diagonal).
	for n := len(f.lRow.lines) - 1; n >= 0; n-- {
		k := f.lRow.lines[n]
		t := x[k]
		if t == 0 {
			continue
		}
		lo, hi := f.lRow.ptr[k], f.lRow.ptr[k+1]
		val := f.lRow.val[lo:hi]
		for e, i := range f.lRow.idx[lo:hi] {
			x[i] -= val[e] * t
		}
	}
	for n := len(f.swaps) - 1; n >= 0; n-- {
		k := f.swaps[n]
		p := f.piv[k]
		x[k], x[p] = x[p], x[k]
	}
}

// ftran solves B x = v in place (LU solve, then the eta file in order).
func (f *luFactor) ftran(x []float64) {
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
func (f *luFactor) btran(x []float64) {
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
func (f *luFactor) update(w []float64, r int) bool {
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
