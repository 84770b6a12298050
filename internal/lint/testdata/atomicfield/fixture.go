// Package fixture seeds atomicfield violations and their corrected
// forms: copies of structs holding sync/atomic fields, and direct
// access to fields tagged lint:atomic.
package fixture

import "sync/atomic"

// Hist mirrors metrics.Histogram's layout: lock-free atomics plus an
// immutable bounds slice.
type Hist struct {
	count  atomic.Uint64
	bounds []float64
}

// nested embeds an atomic-holding struct by value, so it inherits the
// no-copy rule.
type nested struct {
	h  Hist
	id int
}

// laneStats mirrors serve.Stats's layout: fixed arrays of atomics, one
// counter per lane, with no direct atomic field beside them.
type laneStats struct {
	rows [2]atomic.Int64
	name string
}

// tagged uses a plain uint64 under the lint:atomic contract.
type tagged struct {
	n uint64 // lint:atomic — updated from the hot path, read by scrapes
}

// snapshot is copyable: plain fields only.
type snapshot struct {
	count uint64
	sum   float64
}

// --- violations --------------------------------------------------------

func (h Hist) valueReceiver() uint64 { // want "value receiver of valueReceiver copies Hist"
	return h.count.Load()
}

func copyDeref(h *Hist) {
	c := *h // want "assignment copies Hist"
	use(&c)
}

func copyNested(n *nested) {
	c := *n // want "assignment copies nested"
	_ = c.id
}

func copyAtomicArrays(s *laneStats) string {
	c := *s // want "assignment copies laneStats"
	return c.name
}

func passByValue(h *Hist) {
	sink(*h) // want "argument copies Hist"
}

func rangeCopy(hs []Hist) {
	for _, h := range hs { // want "range element copies Hist"
		_ = h.bounds
	}
}

func directAccess(t *tagged) uint64 {
	t.n++    // want "tagged lint:atomic"
	x := t.n // want "tagged lint:atomic"
	_ = x
	return t.n // want "tagged lint:atomic"
}

// --- corrected forms (no diagnostics) ----------------------------------

func pointerReceiverOK(h *Hist) uint64 { return h.count.Load() }

func rangePointerOK(hs []*Hist) {
	for _, h := range hs {
		_ = h.bounds
	}
}

func rangeIndexOK(hs []Hist) {
	for i := range hs {
		hs[i].count.Add(1)
	}
}

func snapshotCopyOK(s snapshot) (uint64, float64) { return s.count, s.sum }

func atomicAccessOK(t *tagged) uint64 {
	atomic.AddUint64(&t.n, 1)
	return atomic.LoadUint64(&t.n)
}

func use(*Hist) {}
func sink(Hist) {}
