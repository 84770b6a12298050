package ltfb

// Lineage tracking: the paper argues that "even though each trainer only
// exposes a model to a subset of the data, models that survive LTFB are
// likely to have been exposed to many trainers at different times, and thus
// are expected to capture the characteristics of the entire dataset"
// (Section III-C). A Lineage records exactly that exposure: the set of
// trainers (data silos) whose partitions a model has been trained on. It
// travels with the generator payload during tournaments as a fixed-size
// bitset, and merging on adoption makes exposure monotone.

// Lineage is a bitset over trainer IDs.
type Lineage []byte

// NewLineage returns a lineage over numTrainers silos containing only self.
func NewLineage(numTrainers, self int) Lineage {
	l := make(Lineage, (numTrainers+7)/8)
	l.Add(self)
	return l
}

// Add marks trainer id as visited.
func (l Lineage) Add(id int) {
	if id < 0 || id >= len(l)*8 {
		return
	}
	l[id/8] |= 1 << (id % 8)
}

// Merge ors other into l; both must have the same size.
func (l Lineage) Merge(other Lineage) {
	for i := range l {
		if i < len(other) {
			l[i] |= other[i]
		}
	}
}
