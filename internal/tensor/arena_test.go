package tensor

import "testing"

// TestArenaRecyclesWhatAPassDrew: the first pass through a sequence of shapes
// is served from the heap, Reset sizes the slab to it, and every later pass
// gets the same non-overlapping storage back without allocating. A nil arena
// is tensor.New.
func TestArenaRecyclesWhatAPassDrew(t *testing.T) {
	shapes := [][2]int{{3, 4}, {1, 7}, {0, 5}, {16, 2}}
	var a Arena
	pass := func() []*Matrix {
		a.Reset()
		out := make([]*Matrix, len(shapes))
		for i, s := range shapes {
			m := a.New(s[0], s[1])
			if m.Rows != s[0] || m.Cols != s[1] || len(m.Data) != s[0]*s[1] || cap(m.Data) != len(m.Data) {
				t.Fatalf("New(%d, %d) = %dx%d over %d of %d floats", s[0], s[1], m.Rows, m.Cols, len(m.Data), cap(m.Data))
			}
			m.Fill(float32(i + 1))
			out[i] = m
		}
		return out
	}
	pass()
	second := pass()
	for i, m := range second {
		for _, v := range m.Data {
			if v != float32(i+1) {
				t.Fatalf("matrix %d was written through another: %v", i, m.Data)
			}
		}
	}
	first := &second[0].Data[0]
	if got := testing.AllocsPerRun(10, func() {
		a.Reset()
		for _, s := range shapes {
			a.New(s[0], s[1])
		}
	}); got != 0 {
		t.Fatalf("a pass the arena has seen makes %v allocations, want 0", got)
	}
	if third := pass(); &third[0].Data[0] != first {
		t.Fatal("Reset did not hand the same storage out again")
	}
	// A longer pass overflows to the heap once, and fits after the next Reset.
	shapes = append(shapes, [2]int{9, 9})
	pass()
	if last := pass()[4]; &last.Data[0] != &a.slab[len(a.slab)-81] {
		t.Fatal("the slab did not grow to the longer pass")
	}

	var heap *Arena
	if m := heap.New(2, 3); m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 || m.Data[5] != 0 {
		t.Fatalf("nil arena New = %v", m)
	}
}
