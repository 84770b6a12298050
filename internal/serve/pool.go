package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/tensor"
)

// Pool is the unit of serving parallelism: a list of replicas, each a
// concurrent execution unit running a cyclegan.Generator — the forward
// model, decoder and inverse that predict and invert read, and nothing of
// the encoder, discriminator or optimizer state that only training does.
// Inference only reads the weights (any number of concurrent nn
// Forward(x, false) passes), so Run takes no lock, several replicas may be
// the same generator, and a replica costs no weights beyond its
// checkpoint's one generator. The generators must not be trained while the
// pool serves them. In round-robin mode every replica answers alone
// (workers over one checkpoint, or different checkpoints for cheap A/B
// capacity); in ensemble mode each batch runs through every replica and
// the predictions are averaged — the serving-side use of the LTFB insight
// that a population of tournament survivors carries more information than
// any single member (Section III-C's lineage argument).
type Pool struct {
	replicas []*cyclegan.Generator
	outDim   int
	next     atomic.Uint64
	ensemble bool
}

// NewPool serves already-built surrogates through their generators. All
// replicas must share the same geometry. ensemble selects averaging across
// replicas instead of round-robin dispatch.
func NewPool(replicas []*cyclegan.Surrogate, ensemble bool) (*Pool, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("serve: pool needs at least one replica")
	}
	dim := replicas[0].Cfg.Geometry.OutputDim()
	gens := make([]*cyclegan.Generator, len(replicas))
	for i, r := range replicas {
		if r.Cfg.Geometry.OutputDim() != dim {
			return nil, fmt.Errorf("serve: replica %d output dim %d, want %d",
				i, r.Cfg.Geometry.OutputDim(), dim)
		}
		gens[i] = &r.Generator
	}
	return &Pool{replicas: gens, outDim: dim, ensemble: ensemble}, nil
}

// NewPoolFromCheckpoints builds a pool of `replicas` replicas with
// architecture cfg. Each distinct checkpoint path is loaded once and the
// replicas take the loaded generators round-robin, so one path with
// replicas = N is N workers over one weight set, and the top-k tournament
// checkpoints give a k-way ensemble. In ensemble mode the pool holds
// exactly one replica per path regardless of `replicas`: every batch
// runs through every replica, so duplicates would both bias the average
// toward repeated checkpoints and add pure wasted compute. A checkpoint is
// read whole into a zero-weight surrogate (cyclegan.NewZero: nothing is
// drawn that the load overwrites), so a damaged file is refused as
// training would refuse it, and the pool keeps a copy of its Generator:
// the encoder, discriminator and optimizer state are garbage once the load
// returns.
func NewPoolFromCheckpoints(cfg cyclegan.Config, paths []string, replicas int, ensemble bool) (*Pool, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("serve: no checkpoint paths")
	}
	if ensemble || replicas < len(paths) {
		replicas = len(paths)
	}
	loaded := make(map[string]*cyclegan.Generator, len(paths))
	gens := make([]*cyclegan.Generator, replicas)
	for i := range gens {
		path := paths[i%len(paths)]
		g := loaded[path]
		if g == nil {
			m := cyclegan.NewZero(cfg)
			if _, err := checkpoint.Load(path, m.Nets()); err != nil {
				return nil, err
			}
			gen := m.Generator // a copy: &m.Generator would keep all of m
			g = &gen
			loaded[path] = g
		}
		gens[i] = g
	}
	return &Pool{replicas: gens, outDim: cfg.Geometry.OutputDim(), ensemble: ensemble}, nil
}

// Pool implements the Model contract the Server batches over.
var _ Model = (*Pool)(nil)

// Replicas returns the pool width.
func (p *Pool) Replicas() int { return len(p.replicas) }

// Ensemble reports whether the pool averages across replicas.
func (p *Pool) Ensemble() bool { return p.ensemble }

// OutputDim returns the width of one prediction row.
func (p *Pool) OutputDim() int { return p.outDim }

// Dims enumerates the surrogate's served methods: the forward pass
// ("predict": 5-D design point to output bundle) and the inverse pass
// ("invert": the self-consistency path G(F(x)), 5-D to 5-D).
func (p *Pool) Dims() map[string]Dims {
	return map[string]Dims{
		MethodPredict: {In: jag.InputDim, Out: p.OutputDim()},
		MethodInvert:  {In: jag.InputDim, Out: jag.InputDim},
	}
}

// pass returns the per-replica forward function for method.
func pass(method string) (func(*cyclegan.Generator, *tensor.Matrix) *tensor.Matrix, error) {
	switch method {
	case MethodPredict:
		return (*cyclegan.Generator).Predict, nil
	case MethodInvert:
		return (*cyclegan.Generator).Invert, nil
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownMethod, method)
}

// Run executes one batched pass of method and returns a matrix the caller
// owns. Round-robin mode runs it on the next replica; ensemble mode fans
// the batch out to every replica concurrently and averages the outputs
// elementwise. Run is safe for any number of concurrent callers.
func (p *Pool) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	fwd, err := pass(method)
	if err != nil {
		return nil, err
	}
	if !p.ensemble || len(p.replicas) == 1 {
		i := int(p.next.Add(1)-1) % len(p.replicas)
		return fwd(p.replicas[i], x), nil
	}

	outs := make([]*tensor.Matrix, len(p.replicas))
	var wg sync.WaitGroup
	for i := range p.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = fwd(p.replicas[i], x)
		}(i)
	}
	wg.Wait()

	// An inference pass returns a matrix nothing else refers to, so the
	// first output is the accumulator.
	sum := outs[0]
	for _, o := range outs[1:] {
		tensor.Add(sum, sum, o)
	}
	tensor.Scale(sum, 1/float32(len(p.replicas)))
	return sum, nil
}
