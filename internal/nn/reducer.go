package nn

// Reducer combines parameter gradients across data-parallel replicas before
// an optimizer step — the hook through which a trainer injects its
// allreduce. Models call it once per optimizer phase.
type Reducer interface {
	Reduce(params []*Param)
}
