// Package tensor implements the dense single-precision linear algebra that
// underpins the neural-network engine, playing the role of LLNL's
// Hydrogen/Elemental library in the paper's software stack (Figure 3).
//
// Matrices are row-major float32. Mini-batches are stored one sample per row,
// so a Linear layer's forward pass is a single pass over the whole batch:
// Dense, y = act(x·W + b), a GEMM whose tiles add the bias and apply the
// activation to the block they have just written.
//
// Gemm is three row-streaming loops (A·B, Aᵀ·B, A·Bᵀ) run over a cut of
// the output that tile.go plans: blocks of rows by panels of columns, each
// panel of B small enough to stay in L2 and no tile longer than about a
// millisecond, issued in waves of one tile per worker through
// internal/parallel while interactive requests are about, and pulled off one
// counter by one goroutine per worker while none is; small products are cut
// into row chunks only. The bits never depend on the cut or the scheduler. The inner loops are the micro-kernels of
// kernel.go: scalar axpy and dot everywhere, and on amd64 SIMD versions under
// the two backward-pass variants (Aᵀ·B and A·Bᵀ) that produce the same bits.
// Two elementwise operations have SIMD kernels on amd64 too: AdamStep, and
// the sigmoid of a dense pass, the decoder's output activation, which
// follows math.Exp's own FMA path lane by lane and so gives math.Exp's bits. kernel.go states the
// contract a new kernel has to keep.
package tensor

import "fmt"

// Matrix is a dense row-major float32 matrix. The zero value is an empty
// matrix; use New or FromSlice to create one with a shape.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements in row-major order: element (i,j) lives at
	// Data[i*Cols+j]. len(Data) == Rows*Cols always.
	Data []float32
}

// New returns a zeroed rows×cols matrix. It panics if either dimension is
// negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data as a rows×cols matrix without copying. It panics if
// len(data) != rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d elements, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// CopyFrom copies src's elements into m. The shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SliceRows returns a view of rows [lo, hi) sharing storage with m.
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range for %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Equal reports whether m and other have identical shape and elements.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != other.Data[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether m and other have identical shape and every
// element pair differs by at most tol (absolute).
func (m *Matrix) ApproxEqual(other *Matrix, tol float32) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - other.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices render as a
// shape summary.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

func (m *Matrix) mustSameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}
