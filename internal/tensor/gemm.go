package tensor

import (
	"fmt"
	"unsafe"

	"repro/internal/parallel"
)

// Op selects whether a GEMM operand is used as-is or transposed.
type Op bool

const (
	// NoTrans uses the operand as stored.
	NoTrans Op = false
	// Trans uses the transpose of the operand.
	Trans Op = true
)

// Gemm computes C = alpha*op(A)*op(B) + beta*C, the workhorse of every layer
// forward and backward pass. Shapes after applying the ops must satisfy
// op(A): m×k, op(B): k×n, C: m×n; Gemm panics otherwise. At most one operand
// may be transposed (a layer's forward pass and its two backward products
// are A·B, Aᵀ·B and A·Bᵀ); Gemm panics on Aᵀ·Bᵀ. C must not share memory
// with A or B — the kernels scale and write C while they still read both —
// and Gemm panics if it does, whether through one *Matrix passed twice, two
// Matrix values over one slice, or a SliceRows view. A and B may be the same
// matrix.
func Gemm(c *Matrix, alpha float32, a *Matrix, transA Op, b *Matrix, transB Op, beta float32) {
	newPass(c, alpha, a, transA, b, transB, beta).run(planTiles)
}

// Dense computes y = act(x·W + b), the forward pass of a fully-connected
// layer, in one pass over y: each tile of y is zeroed, gets its whole
// product, then the bias and the activation, while it is still in cache.
// x is m×k, W k×n, y m×n and b n long; whatever y holds on entry is
// overwritten. The bits are those of MatMul, then adding b to every row,
// then act on every element (kernel.go, "Epilogue"). y must not share memory
// with x, W or b.
func Dense(y, x, w *Matrix, b []float32, act Act) { densePass(y, x, w, b, act).run(planTiles) }

// pass is one GEMM, C = alpha·op(A)·op(B) + beta·C, checked and ready to be
// cut into tiles (tile.go); run takes the cut from plan, which tests replace
// with cuts planTiles never makes. Every cut gives the same bits.
type pass struct {
	c, a, b     *Matrix
	alpha, beta float32
	k           int
	kernel      func(c *Matrix, alpha float32, a, b *Matrix, i0, i1, j0, j1 int)
	// The epilogue of a dense pass: each element of C gets bias[j] added
	// and then act applied, once its whole k is in; epi is what that costs
	// (actWork). A plain GEMM has a nil bias and no epilogue.
	bias []float32
	act  Act
	epi  int
}

func newPass(c *Matrix, alpha float32, a *Matrix, transA Op, b *Matrix, transB Op, beta float32) pass {
	if transA == Trans && transB == Trans {
		panic("tensor: Gemm takes at most one transposed operand")
	}
	m, ka := a.Rows, a.Cols
	if transA == Trans {
		m, ka = a.Cols, a.Rows
	}
	kb, n := b.Rows, b.Cols
	if transB == Trans {
		kb, n = b.Cols, b.Rows
	}
	if ka != kb {
		panic(fmt.Sprintf("tensor: Gemm inner dimension mismatch %d vs %d", ka, kb))
	}
	if c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("tensor: Gemm output shape %dx%d, want %dx%d", c.Rows, c.Cols, m, n))
	}
	if overlap(c.Data, a.Data) || overlap(c.Data, b.Data) {
		panic("tensor: Gemm output shares memory with an input")
	}
	p := pass{c: c, a: a, b: b, alpha: alpha, beta: beta, k: ka, kernel: gemmNN}
	switch {
	case transA == Trans:
		p.kernel = gemmTN
	case transB == Trans:
		p.kernel = gemmNT
	}
	return p
}

// densePass is Dense's pass: y = 1·x·W + 0·y with the epilogue.
func densePass(y, x, w *Matrix, b []float32, act Act) pass {
	if len(b) != w.Cols {
		panic(fmt.Sprintf("tensor: Dense bias length %d, want %d", len(b), w.Cols))
	}
	if overlap(y.Data, b) {
		panic("tensor: Dense output shares memory with the bias")
	}
	p := newPass(y, 1, x, NoTrans, w, NoTrans, 0)
	p.bias, p.act, p.epi = b, act, actWork[act]
	return p
}

// run cuts C with plan and runs its tiles (tile.go). A lone tile runs on the
// caller's goroutine. A pass of one wave, or one planned for a single worker,
// runs in waves. A pass of more waves runs in waves while interactive
// requests are about and is pulled while the process is quiet
// (parallel.Quiet); only such a pass reads the clock.
func (p pass) run(plan func(m, n, cell, workers int) tiling) {
	m, n := p.c.Rows, p.c.Cols
	if m == 0 || n == 0 {
		return
	}
	cell := p.k + p.epi
	t := plan(m, n, cell, parallel.Workers())
	switch {
	case t.tiles() == 1:
		// The whole of C on the caller's goroutine, as waves would run it,
		// without the closure waves needs: a training step is some sixty
		// GEMMs this small.
		p.tile(0, m, 0, n)
	case t.tiles() <= t.width || t.width < 2 || !parallel.Quiet():
		t.waves(p.tiles(t))
	default:
		t.pulled(stopEvery(t, cell), p.tiles(t))
	}
}

// tiles is what a scheduler runs for a cut t of C: the tiles lo to hi-1.
func (p pass) tiles(t tiling) func(lo, hi int) {
	return func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			p.tile(t.tile(idx))
		}
	}
}

// tile computes rows [i0, i1) by columns [j0, j1) of C: beta applied to the
// block, then the kernel over the whole of k, then the epilogue. A product
// with no terms (k = 0, or alpha = 0) adds nothing, not even a zero: y + 0 is
// not y when y is −0.
func (p pass) tile(i0, i1, j0, j1 int) {
	n := p.c.Cols
	if p.beta != 1 {
		for i := i0; i < i1; i++ {
			row := p.c.Data[i*n+j0 : i*n+j1]
			if p.beta == 0 {
				clear(row)
				continue
			}
			for j := range row {
				row[j] *= p.beta
			}
		}
	}
	if p.k > 0 && p.alpha != 0 {
		p.kernel(p.c, p.alpha, p.a, p.b, i0, i1, j0, j1)
	}
	if p.bias == nil {
		return
	}
	bias := p.bias[j0:j1]
	for i := i0; i < i1; i++ {
		row := p.c.Data[i*n+j0 : i*n+j1]
		addRowVector(row, bias)
		p.act.apply(row)
	}
}

// overlap reports whether x and y have an element in common.
func overlap(x, y []float32) bool {
	return len(x) > 0 && len(y) > 0 &&
		uintptr(unsafe.Pointer(&x[0])) <= uintptr(unsafe.Pointer(&y[len(y)-1])) &&
		uintptr(unsafe.Pointer(&y[0])) <= uintptr(unsafe.Pointer(&x[len(x)-1]))
}

// MatMul computes C = A*B, zeroing C first.
func MatMul(c, a, b *Matrix) { Gemm(c, 1, a, NoTrans, b, NoTrans, 0) }

// The three kernels below each add alpha·op(A)·op(B) into one tile of C, rows
// [i0, i1) by columns [j0, j1), over the whole of k: the calls a full-width
// pass would make, on sub-slices.

// gemmNN: C += alpha * A*B. i-k-j loop order streams rows of B and C.
func gemmNN(c *Matrix, alpha float32, a, b *Matrix, i0, i1, j0, j1 int) {
	k, n := b.Rows, b.Cols
	for i := i0; i < i1; i++ {
		ci := c.Data[i*n+j0 : i*n+j1]
		ai := a.Data[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			s := alpha * ai[p]
			if s == 0 {
				continue
			}
			axpy(s, b.Data[p*n+j0:p*n+j1], ci)
		}
	}
}

// gemmTN: C += alpha * Aᵀ*B where A is k×m. Used for weight gradients
// dW = Xᵀ·dY. The updates of a C row are taken four at a time through
// axpy4; a group with a zero multiplier, and the last k%4 updates, go one at
// a time so the zero skip stays exact.
func gemmTN(c *Matrix, alpha float32, a, b *Matrix, i0, i1, j0, j1 int) {
	k := a.Rows
	mA := a.Cols
	n := b.Cols
	var s [4]float32
	for i := i0; i < i1; i++ {
		ci := c.Data[i*n+j0 : i*n+j1]
		p := 0
		for ; p+4 <= k; p += 4 {
			s[0] = alpha * a.Data[p*mA+i]
			s[1] = alpha * a.Data[(p+1)*mA+i]
			s[2] = alpha * a.Data[(p+2)*mA+i]
			s[3] = alpha * a.Data[(p+3)*mA+i]
			if s[0] != 0 && s[1] != 0 && s[2] != 0 && s[3] != 0 {
				axpy4(&s, b.Data[p*n+j0:(p+3)*n+j1], n, ci)
				continue
			}
			for q, sq := range s {
				if sq != 0 {
					axpy(sq, b.Data[(p+q)*n+j0:(p+q)*n+j1], ci)
				}
			}
		}
		for ; p < k; p++ {
			if sp := alpha * a.Data[p*mA+i]; sp != 0 {
				axpy(sp, b.Data[p*n+j0:p*n+j1], ci)
			}
		}
	}
}

// gemmNT: C += alpha * A*Bᵀ where B is n×k. Used for input gradients
// dX = dY·Wᵀ. Each output element is a dot product of two rows; four
// consecutive rows of B are taken against one row of A through dot4.
func gemmNT(c *Matrix, alpha float32, a, b *Matrix, i0, i1, j0, j1 int) {
	k := a.Cols
	n := b.Rows
	var d [4]float32
	for i := i0; i < i1; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		j := j0
		for ; j+4 <= j1; j += 4 {
			dot4(&d, ai, b.Data[j*k:(j+4)*k], k)
			ci[j] += float32(alpha * d[0])
			ci[j+1] += float32(alpha * d[1])
			ci[j+2] += float32(alpha * d[2])
			ci[j+3] += float32(alpha * d[3])
		}
		for ; j < j1; j++ {
			ci[j] += float32(alpha * dot(ai, b.Data[j*k:(j+1)*k]))
		}
	}
}
