package trainer

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/cyclegan"
	"repro/internal/datastore"
	"repro/internal/jag"
	"repro/internal/nn"
	"repro/internal/reader"
	"repro/internal/tensor"
)

// jagSliceDataset materializes n flattened JAG samples in memory.
func jagSliceDataset(t testing.TB, cfg jag.Config, start, n int) *reader.SliceDataset {
	t.Helper()
	recs := make([][]float32, n)
	for i := range recs {
		recs[i] = jag.SimulateAt(cfg, start+i).Flatten()
	}
	ds, err := reader.NewSliceDataset(cfg.SampleDim(), recs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func tinySurrogate(seed int64) *cyclegan.Surrogate {
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{24}
	cfg.ForwardHidden = []int{16}
	cfg.InverseHidden = []int{12}
	cfg.DiscHidden = []int{12}
	return cyclegan.New(cfg, seed)
}

// buildTrainers makes a world of the given ranks and one trainer spanning
// all of them.
func buildTrainers(t *testing.T, ranks int, ds reader.Dataset, batch int) (*comm.World, []*Trainer) {
	t.Helper()
	w, trainers := comm.NewWorld(ranks), make([]*Trainer, ranks)
	w.Run(func(c *comm.Comm) {
		store := datastore.New(c, ds, datastore.ModeDynamic)
		tr, err := New(Config{ID: 0, BatchSize: batch, XDim: jag.InputDim, ShuffleSeed: 42}, c, tinySurrogate(7), store, ds)
		if err != nil {
			t.Error(err)
			return
		}
		trainers[c.Rank()] = tr
	})
	return w, trainers
}

func TestNewValidation(t *testing.T) {
	ds := jagSliceDataset(t, jag.Tiny8, 0, 32)
	w := comm.NewWorld(4)
	w.Run(func(c *comm.Comm) {
		store := datastore.New(c, ds, datastore.ModeNone)
		if _, err := New(Config{BatchSize: 2, XDim: 5, ShuffleSeed: 1}, c, tinySurrogate(1), store, ds); err == nil {
			t.Error("batch < ranks must error")
		}
		if _, err := New(Config{BatchSize: 64, XDim: 5, ShuffleSeed: 1}, c, tinySurrogate(1), store, ds); err == nil {
			t.Error("dataset < batch must error")
		}
		if _, err := New(Config{BatchSize: 8, XDim: 0, ShuffleSeed: 1}, c, tinySurrogate(1), store, ds); err == nil {
			t.Error("xDim 0 must error")
		}
	})
}

func TestDataParallelReplicasStayIdentical(t *testing.T) {
	ds := jagSliceDataset(t, jag.Tiny8, 0, 64)
	w, trainers := buildTrainers(t, 4, ds, 16)
	w.Run(func(c *comm.Comm) {
		if err := trainers[c.Rank()].Advance(6); err != nil {
			t.Error(err)
		}
	})
	ref := trainers[0].Model.Nets()
	for r := 1; r < 4; r++ {
		nets := trainers[r].Model.Nets()
		for i := range ref {
			pa, pb := ref[i].Params(), nets[i].Params()
			for j := range pa {
				if !pa[j].W.Equal(pb[j].W) {
					t.Fatalf("rank %d net %d param %d diverged from rank 0", r, i, j)
				}
			}
		}
	}
}

// Data parallelism must be algorithmically equivalent to serial training:
// a 2-rank trainer and a 1-rank trainer see the same batches and must end
// with (nearly) the same weights. Gradients differ only by float summation
// order in shard-mean averaging, so allow a small tolerance.
func TestDataParallelMatchesSerial(t *testing.T) {
	ds := jagSliceDataset(t, jag.Tiny8, 0, 32)

	serialT := make([]*Trainer, 1)
	w1 := comm.NewWorld(1)
	w1.Run(func(c *comm.Comm) {
		store := datastore.New(c, ds, datastore.ModeDynamic)
		tr, err := New(Config{BatchSize: 16, XDim: jag.InputDim, ShuffleSeed: 5}, c, tinySurrogate(3), store, ds)
		if err != nil {
			t.Error(err)
			return
		}
		serialT[0] = tr
		if err := tr.Advance(4); err != nil {
			t.Error(err)
		}
	})

	parT := make([]*Trainer, 2)
	w2 := comm.NewWorld(2)
	w2.Run(func(c *comm.Comm) {
		store := datastore.New(c, ds, datastore.ModeDynamic)
		tr, err := New(Config{BatchSize: 16, XDim: jag.InputDim, ShuffleSeed: 5}, c, tinySurrogate(3), store, ds)
		if err != nil {
			t.Error(err)
			return
		}
		parT[c.Rank()] = tr
		if err := tr.Advance(4); err != nil {
			t.Error(err)
		}
	})

	sNets := serialT[0].Model.Nets()
	pNets := parT[0].Model.Nets()
	for i := range sNets {
		ps, pp := sNets[i].Params(), pNets[i].Params()
		for j := range ps {
			if !ps[j].W.ApproxEqual(pp[j].W, 5e-2) {
				t.Fatalf("net %d param %d: serial and 2-rank training diverged beyond tolerance", i, j)
			}
		}
	}
}

func TestAdvanceCrossesEpochs(t *testing.T) {
	ds := jagSliceDataset(t, jag.Tiny8, 0, 32)
	w, trainers := buildTrainers(t, 2, ds, 16)
	// 2 steps per epoch; advancing 5 steps crosses 2 epoch boundaries.
	w.Run(func(c *comm.Comm) {
		if err := trainers[c.Rank()].Advance(5); err != nil {
			t.Error(err)
		}
	})
	if tr := trainers[0]; tr.epochs != 2 || tr.cursor != 1 {
		t.Fatalf("after 5 steps: %d epochs done and step %d of the next, want 2 and 1", tr.epochs, tr.cursor)
	}
}

func TestTrainingReducesLossAndEval(t *testing.T) {
	ds := jagSliceDataset(t, jag.Tiny8, 0, 64)
	val := jagSliceDataset(t, jag.Tiny8, 2000, 32)
	w, trainers := buildTrainers(t, 2, ds, 32)
	evals := make([]float64, 2)
	var before, after float64
	w.Run(func(c *comm.Comm) {
		tr := trainers[c.Rank()]
		b, err := tr.Evaluate(val, 16)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			before = b
		}
		if err := tr.Advance(60); err != nil {
			t.Error(err)
			return
		}
		a, err := tr.Evaluate(val, 16)
		if err != nil {
			t.Error(err)
			return
		}
		evals[c.Rank()] = a
		if c.Rank() == 0 {
			after = a
		}
	})
	if evals[0] != evals[1] {
		t.Fatalf("Evaluate must agree across ranks: %v vs %v", evals[0], evals[1])
	}
	if !(after < before*0.95) {
		t.Fatalf("training did not improve eval: %v -> %v", before, after)
	}
}

func TestEvaluateConsistentAcrossStoreModes(t *testing.T) {
	// Evaluation bypasses the store and must not depend on its mode.
	ds := jagSliceDataset(t, jag.Tiny8, 0, 32)
	val := jagSliceDataset(t, jag.Tiny8, 500, 16)
	results := map[datastore.Mode]float64{}
	var mu sync.Mutex
	for _, mode := range []datastore.Mode{datastore.ModeNone, datastore.ModeDynamic, datastore.ModePreload} {
		w := comm.NewWorld(2)
		w.Run(func(c *comm.Comm) {
			store := datastore.New(c, ds, mode)
			if mode == datastore.ModePreload {
				if err := store.Preload(); err != nil {
					t.Error(err)
					return
				}
			}
			tr, err := New(Config{BatchSize: 8, XDim: jag.InputDim, ShuffleSeed: 3}, c, tinySurrogate(11), store, ds)
			if err != nil {
				t.Error(err)
				return
			}
			v, err := tr.Evaluate(val, 8)
			if err != nil {
				t.Error(err)
				return
			}
			if c.Rank() == 0 {
				mu.Lock()
				results[mode] = v
				mu.Unlock()
			}
		})
	}
	if results[datastore.ModeNone] != results[datastore.ModeDynamic] ||
		results[datastore.ModeNone] != results[datastore.ModePreload] {
		t.Fatalf("eval differs by store mode: %v", results)
	}
}

// fillGrads lays params' gradients out as a slab and sets every element to v.
func fillGrads(params []*nn.Param, v float32) {
	slab := nn.GradSlab(params)
	for i := range slab {
		slab[i] = v
	}
}

func TestAllreduceReducerAverages(t *testing.T) {
	w := comm.NewWorld(4)
	results := make([]float32, 4)
	w.Run(func(c *comm.Comm) {
		m := tinySurrogate(2)
		params := m.Forward.Params()
		fillGrads(params, float32(c.Rank()+1)) // ranks contribute 1,2,3,4
		AllreduceReducer{C: c}.Reduce(params)
		results[c.Rank()] = params[0].Grad.Data[0]
	})
	for r, v := range results {
		if v != 2.5 { // mean of 1..4
			t.Fatalf("rank %d reduced grad = %v, want 2.5", r, v)
		}
	}
}

// TestAllreduceReducerReusesScratch drives one reducer per rank through
// parameter sets of different sizes, as the three phases of a train step do.
// The gradients are reduced where they lie — the slab before a Reduce is the
// slab after it, one phase's values never show in the next — and once the
// ring's segment buffers have carried the largest set, a Reduce allocates
// nothing.
func TestAllreduceReducerReusesScratch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: nothing else runs while the ranks are counted
	w := comm.NewWorld(2)
	w.Run(func(c *comm.Comm) {
		m := tinySurrogate(2)
		r := AllreduceReducer{C: c}
		big, small := m.Decoder.Params(), m.Disc.Params()
		sets := [][]*nn.Param{big, small, big, small}
		for step, params := range sets {
			fillGrads(params, float32((c.Rank()+1)*(step+1))) // ranks contribute s, 2s
			slab := nn.GradSlab(params)
			r.Reduce(params)
			if after := nn.GradSlab(params); &after[0] != &slab[0] || len(after) != len(slab) {
				t.Errorf("rank %d step %d: Reduce moved the gradient slab", c.Rank(), step)
			}
			want := 1.5 * float32(step+1)
			for _, p := range params {
				for i, v := range p.Grad.Data {
					if v != want {
						t.Errorf("rank %d step %d: grad[%d] = %v, want %v", c.Rank(), step, i, v, want)
						return
					}
				}
			}
		}
		// A Reduce is collective and the allocation count is the process's,
		// so the ranks run the Reduces together between barriers and rank 0
		// reads one delta for both. The two barriers inside the window cost
		// an allocation a rank each; dividing as testing.AllocsPerRun does
		// drops them, and one allocation per Reduce on either rank reads 1.
		const runs = 100
		for _, params := range sets[:2] {
			var before, after runtime.MemStats
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			for i := 0; i < runs; i++ {
				r.Reduce(params)
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				if got := (after.Mallocs - before.Mallocs) / runs; got != 0 {
					t.Errorf("a steady-state Reduce of %d parameters makes %d allocations over both ranks, want 0", len(params), got)
				}
			}
		}
	})
}

// TestAllreduceReducerPacksUntrainedParams: gradient storage appears on
// first training use, so a rank can reach a Reduce holding none. It still
// reduces every parameter — as zeros — or the ranks' slabs would disagree
// in length and the ring would mix parameters up.
func TestAllreduceReducerPacksUntrainedParams(t *testing.T) {
	w := comm.NewWorld(2)
	results := make([][]float32, 2)
	w.Run(func(c *comm.Comm) {
		params := tinySurrogate(2).Forward.Params()
		if c.Rank() == 0 {
			nn.ZeroGrad(params)
			for i, p := range params {
				p.Grad.Fill(float32(2 * (i + 1)))
			}
		}
		AllreduceReducer{C: c}.Reduce(params)
		for _, p := range params {
			results[c.Rank()] = append(results[c.Rank()], p.Grad.Data[0], p.Grad.Data[len(p.Grad.Data)-1])
		}
	})
	for r, got := range results {
		for j, v := range got {
			if want := float32(j/2 + 1); v != want { // mean of 2(i+1) and 0
				t.Fatalf("rank %d: reduced grads %v, want param i's to be i+1", r, got)
			}
		}
	}
}

func TestAllreduceReducerSingleRankNoop(t *testing.T) {
	w := comm.NewWorld(1)
	w.Run(func(c *comm.Comm) {
		m := tinySurrogate(2)
		params := m.Forward.Params()
		fillGrads(params, 3)
		AllreduceReducer{C: c}.Reduce(params)
		if params[0].Grad.Data[0] != 3 {
			t.Error("single-rank reduce must be identity")
		}
	})
}

// packedReduce is the reducer this package had before gradients lived in a
// slab: pack every gradient into a buffer, allreduce the buffer, unpack and
// scale. It is kept as the reference the in-place Reduce must match bit for
// bit; a parameter without a gradient packs as zeros.
func packedReduce(c *comm.Comm, params []*nn.Param) [][]float32 {
	var buf []float32
	for _, p := range params {
		if p.Grad != nil {
			buf = append(buf, p.Grad.Data...)
		} else {
			buf = append(buf, make([]float32, len(p.W.Data))...)
		}
	}
	c.AllreduceSum(buf)
	inv := float32(1) / float32(c.Size())
	out := make([][]float32, len(params))
	for i, p := range params {
		n := len(p.W.Data)
		out[i] = make([]float32, n)
		for j := range out[i] {
			out[i][j] = buf[j] * inv
		}
		buf = buf[n:]
	}
	return out
}

// TestSlabReduceMatchesPackedReference: at one to four ranks, with gradients
// whose sums round differently in every association, the in-place Reduce
// leaves the bits the pack-allreduce-unpack reference computes — the slab is
// the packed buffer, so the ring cuts it into the same segments. On the last
// rank one parameter has never trained and one group trained layer by layer
// (two slabs, not one); both are regrouped, not skipped.
func TestSlabReduceMatchesPackedReference(t *testing.T) {
	for ranks := 1; ranks <= 4; ranks++ {
		comm.NewWorld(ranks).Run(func(c *comm.Comm) {
			m := tinySurrogate(3)
			rng := rand.New(rand.NewSource(int64(100*ranks + c.Rank())))
			for _, params := range [][]*nn.Param{
				append(m.Encoder.Params(), m.Decoder.Params()...), m.Disc.Params(),
				append(m.Forward.Params(), m.Inverse.Params()...),
			} {
				last := c.Rank() == ranks-1
				if last {
					nn.GradSlab(params[:2])
					nn.GradSlab(params[2:])
				} else {
					nn.GradSlab(params)
				}
				for _, p := range params {
					tensor.FillUniform(p.Grad, rng, -1, 1)
				}
				if last {
					params[1].Grad = nil
				}
				want := packedReduce(c, params)
				AllreduceReducer{C: c}.Reduce(params)
				for i, p := range params {
					got := make([]float32, len(p.W.Data)) // a lone rank reduces nothing: still no gradient, read as zeros
					if p.Grad != nil {
						got = p.Grad.Data
					}
					for j, v := range got {
						if math.Float32bits(v) != math.Float32bits(want[i][j]) {
							t.Errorf("%d ranks, rank %d, %s[%d]: %v, packed reference %v", ranks, c.Rank(), p.Name, j, v, want[i][j])
							return
						}
					}
				}
			}
		})
	}
}
