package tensor

// Arena hands out matrices that one Reset takes back together: a training
// step draws every activation and gradient temporary from one, and the next
// step writes over them. The slab is sized by use — a request beyond it is
// served from the heap, and Reset grows the slab to all that was asked for
// since the last one — so from the second step of a fixed shape on, New
// allocates nothing.
//
// A matrix from New is valid until the next Reset and, unlike one from
// tensor.New, is not zeroed. A nil *Arena is the heap: its New is tensor.New.
// An Arena serves one goroutine.
type Arena struct {
	slab []float32
	used int       // floats asked for since Reset; beyond len(slab) they came from the heap
	hdrs []*Matrix // headers handed out since Reset are hdrs[:live], reused after it
	live int
}

// New returns a rows×cols matrix with arbitrary contents.
func (a *Arena) New(rows, cols int) *Matrix {
	if a == nil {
		return New(rows, cols)
	}
	if a.live == len(a.hdrs) {
		a.hdrs = append(a.hdrs, new(Matrix))
	}
	m := a.hdrs[a.live]
	a.live++
	lo := a.used
	a.used += rows * cols
	*m = Matrix{Rows: rows, Cols: cols}
	if a.used <= len(a.slab) {
		m.Data = a.slab[lo:a.used:a.used]
	} else {
		m.Data = make([]float32, rows*cols)
	}
	return m
}

// Reset takes back every matrix handed out since the last Reset.
func (a *Arena) Reset() {
	if a.used > len(a.slab) {
		a.slab = make([]float32, a.used)
	}
	a.used, a.live = 0, 0
}
