package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// ladder holds the costs of the layers below the queue, each measured
// alone, single-caller, on one model at one batch shape: tensor.Gemm →
// Network.Forward → Surrogate.Predict/Invert → Pool.Run, the two wire
// codecs, Server.Call over a zero-cost model, the Adam step and the
// training-direction passes. Durations are medians in nanoseconds per
// pass unless named otherwise.
type ladder struct {
	batch, outDim int

	gemmNs, gemmTrainNs, gemmFlopsPerRow, gemmBytesPerRow float64
	forwardNs, forwardAllocs, fwdbwdNs                    float64
	predictNs, invertNs, predictAllocs, predictBytes      float64
	poolNs, adamNs                                        float64

	jgt1EncodeNs, jgt1DecodeNs, jgt1Bytes float64
	jsonEncodeNs, jsonDecodeNs, jsonBytes float64
	wireAllocs                            float64

	loneCallMs, hopUsPerRow, queueAllocsPerRow float64
}

// zeroModel answers every batch instantly from one preallocated
// matrix, so Server.Call over it times the queue and nothing else.
type zeroModel struct {
	dims map[string]serve.Dims
	out  *tensor.Matrix
}

func (z zeroModel) Dims() map[string]serve.Dims { return z.dims }

func (z zeroModel) Run(_ string, x *tensor.Matrix) (*tensor.Matrix, error) {
	return z.out.SliceRows(0, x.Rows), nil
}

// linears returns the fully-connected layers of the predict path.
func linears(s *cyclegan.Surrogate) []*nn.Linear {
	var out []*nn.Linear
	for _, net := range []*nn.Network{s.Forward, s.Decoder} {
		for _, l := range net.Layers {
			if lin, ok := l.(*nn.Linear); ok {
				out = append(out, lin)
			}
		}
	}
	return out
}

func filled(rows, cols int, v float32) *tensor.Matrix {
	m := tensor.New(rows, cols)
	m.Fill(v)
	return m
}

// runLadder measures every rung on s at the given batch. It trains s
// (the Adam rung moves its weights), so it runs after the output
// checks. smoke takes one repetition of everything.
func runLadder(ctx context.Context, s *cyclegan.Surrogate, batch int, smoke bool) (*ladder, error) {
	budget, minReps, loneCalls, hopCalls := 200*time.Millisecond, 3, 20, 40
	if smoke {
		budget, minReps, loneCalls, hopCalls = 0, 1, 2, 2
	}
	rep := func(fn func()) float64 { return 1e9 * timeReps(budget, minReps, fn) }
	// Start from a collected heap: a mark phase left over from the
	// window would tax every allocating rung with assist work.
	runtime.GC()
	l := &ladder{batch: batch, outDim: s.Cfg.Geometry.OutputDim()}
	x := filled(batch, jag.InputDim, 0.5)

	// tensor: the GEMMs of the predict path, inference direction (NN)
	// then the three a training step issues per layer (NN + TN + NT).
	lins := linears(s)
	ins, outs, grads := make([]*tensor.Matrix, len(lins)), make([]*tensor.Matrix, len(lins)), make([]*tensor.Matrix, len(lins))
	dxs := make([]*tensor.Matrix, len(lins))
	for i, lin := range lins {
		ins[i], outs[i] = filled(batch, lin.In, 0.5), filled(batch, lin.Out, 0.5)
		grads[i], dxs[i] = tensor.New(lin.In, lin.Out), tensor.New(batch, lin.In)
		l.gemmFlopsPerRow += 2 * float64(lin.In*lin.Out)
		// Computed from tensor sizes, not measured: the weights stream
		// once per pass, the activations once per row.
		l.gemmBytesPerRow += 4 * (float64(lin.In*lin.Out)/float64(batch) + float64(lin.In+lin.Out))
	}
	l.gemmNs = rep(func() {
		for i, lin := range lins {
			tensor.MatMul(outs[i], ins[i], lin.Weight.W)
		}
	})
	l.gemmTrainNs = rep(func() {
		for i, lin := range lins {
			tensor.MatMul(outs[i], ins[i], lin.Weight.W)
			tensor.Gemm(grads[i], 1, ins[i], tensor.Trans, outs[i], tensor.NoTrans, 0)
			tensor.Gemm(dxs[i], 1, outs[i], tensor.NoTrans, lin.Weight.W, tensor.Trans, 0)
		}
	})

	// nn and cyclegan: the same pass through the layer stack, then
	// through the surrogate's methods.
	forward := func() { s.Decoder.Forward(s.Forward.Forward(x, false), false) }
	l.forwardNs = rep(forward)
	l.forwardAllocs, _ = allocDelta(forward)
	l.predictNs = rep(func() { s.Predict(x) })
	l.invertNs = rep(func() { s.Invert(x) })
	l.predictAllocs, l.predictBytes = allocDelta(func() { s.Predict(x) })

	// serve_pool: Pool.Run on the same matrix; the difference to
	// Predict is the pool's lock and dispatch.
	pool, err := serve.NewPool([]*cyclegan.Surrogate{s}, false)
	if err != nil {
		return nil, err
	}
	if _, err := pool.Run(serve.MethodPredict, x); err != nil {
		return nil, err
	}
	// The timed repeats below drop their errors: each call has just
	// succeeded once on the same input.
	l.poolNs = rep(func() { _, _ = pool.Run(serve.MethodPredict, x) })

	// serve_wire: both codecs on the reply this batch produces.
	y := s.Predict(x)
	rows := make([][]float32, batch)
	for i := range rows {
		rows[i] = y.Row(i)
	}
	var frame, body []byte
	var back serve.PredictResponse
	var encErr, decErr, marshalErr, unmarshalErr error
	l.wireAllocs, _ = allocDelta(func() {
		frame, encErr = serve.EncodeFrame(rows)
		_, decErr = serve.DecodeFrame(bytes.NewReader(frame), 0, 0)
		body, marshalErr = json.Marshal(serve.PredictResponse{Outputs: rows})
		unmarshalErr = json.Unmarshal(body, &back)
	})
	if err := errors.Join(encErr, decErr, marshalErr, unmarshalErr); err != nil {
		return nil, err
	}
	l.jgt1Bytes, l.jsonBytes = float64(len(frame)), float64(len(body))
	l.jgt1EncodeNs = rep(func() { _, _ = serve.EncodeFrame(rows) })
	l.jgt1DecodeNs = rep(func() { _, _ = serve.DecodeFrame(bytes.NewReader(frame), 0, 0) })
	l.jsonEncodeNs = rep(func() { _, _ = json.Marshal(serve.PredictResponse{Outputs: rows}) })
	l.jsonDecodeNs = rep(func() {
		var back serve.PredictResponse
		_ = json.Unmarshal(body, &back)
	})

	if err := l.queueRungs(ctx, loneCalls, hopCalls); err != nil {
		return nil, err
	}

	// Training direction: forward(training) + backward through the
	// predict path, then one Adam step over its parameters.
	dy := filled(batch, l.outDim, 1/float32(batch*l.outDim))
	l.fwdbwdNs = rep(func() {
		s.Decoder.Forward(s.Forward.Forward(x, true), true)
		s.Forward.Backward(s.Decoder.Backward(dy))
	})
	params := append(s.Forward.Params(), s.Decoder.Params()...)
	adam := opt.NewAdam(s.Cfg.LR)
	adam.Step(params) // allocates the moment buffers
	l.adamNs = rep(func() { adam.Step(params) })
	return l, nil
}

// queueRungs times Server.Call at the shipped defaults over a model
// that costs nothing: one caller at a time on an idle server (the
// flush floor), then 64 concurrent callers (the per-row hop).
func (l *ladder) queueRungs(ctx context.Context, loneCalls, hopCalls int) error {
	zm := zeroModel{
		dims: map[string]serve.Dims{serve.MethodPredict: {In: jag.InputDim, Out: l.outDim}},
		out:  tensor.New(serveMaxBatch, l.outDim),
	}
	srv := serve.NewServer(zm, serveDefaults)
	defer srv.Close()
	// Distinct inputs: a repeated row would be answered by the LRU and
	// never reach the queue. 64 callers sit far below the 256-row queue
	// depth, so no call is refused; errs keeps the first surprise.
	errs := make([]error, serveMaxBatch+1)
	call := func(caller, k int) {
		x := []float32{float32(caller) / 128, float32(k) / 4096, 0.5, 0.5, 0.5}
		if _, err := srv.Call(ctx, serve.MethodPredict, x, serve.Interactive); err != nil && errs[caller] == nil {
			errs[caller] = err
		}
	}
	var lone []float64
	for k := 0; k < loneCalls; k++ {
		t0 := time.Now()
		call(serveMaxBatch, k)
		lone = append(lone, ms(time.Since(t0)))
	}
	l.loneCallMs = median(lone)

	t0 := time.Now()
	mallocs, _ := allocDelta(func() {
		var wg sync.WaitGroup
		for c := 0; c < serveMaxBatch; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < hopCalls; k++ {
					call(c, k)
				}
			}()
		}
		wg.Wait()
	})
	n := float64(serveMaxBatch * hopCalls)
	l.hopUsPerRow = float64(time.Since(t0).Microseconds()) / n
	l.queueAllocsPerRow = mallocs / n
	return errors.Join(errs...)
}

// fill writes the ladder's share of the per-layer metrics.
func (l *ladder) fill(m map[string]float64) {
	b := float64(l.batch)
	m["tensor.gemm_us_per_row"] = l.gemmNs / 1e3 / b
	m["tensor.gemm_gflops"] = ratio(l.gemmFlopsPerRow*b, l.gemmNs)
	m["tensor.gemm_flops_per_row"] = l.gemmFlopsPerRow
	m["tensor.gemm_bytes_per_row"] = l.gemmBytesPerRow
	m["tensor.gemm_train_ms_per_step"] = l.gemmTrainNs / 1e6
	m["nn.forward_us_per_row"] = l.forwardNs / 1e3 / b
	m["nn.self_share"] = max(ratio(l.forwardNs-l.gemmNs, l.forwardNs), 0)
	m["nn.forward_allocs_per_pass"] = l.forwardAllocs
	m["nn.fwdbwd_ms_per_step"] = l.fwdbwdNs / 1e6
	m["cyclegan.predict_us_per_row"] = l.predictNs / 1e3 / b
	m["cyclegan.invert_us_per_row"] = l.invertNs / 1e3 / b
	m["cyclegan.predict_allocs_per_pass"] = l.predictAllocs
	m["cyclegan.predict_kb_per_row"] = l.predictBytes / 1024 / b
	m["serve_pool.self_us_per_pass"] = max(l.poolNs-l.predictNs, 0) / 1e3
	m["serve_wire.jgt1_encode_ns_per_row"] = l.jgt1EncodeNs / b
	m["serve_wire.jgt1_decode_ns_per_row"] = l.jgt1DecodeNs / b
	m["serve_wire.jgt1_bytes_per_row"] = l.jgt1Bytes / b
	m["serve_wire.json_encode_ns_per_row"] = l.jsonEncodeNs / b
	m["serve_wire.json_decode_ns_per_row"] = l.jsonDecodeNs / b
	m["serve_wire.json_bytes_per_row"] = l.jsonBytes / b
	m["serve_wire.allocs_per_row"] = l.wireAllocs / b
	m["serve_queue.lone_call_ms"] = l.loneCallMs
	m["serve_queue.hop_us_per_row"] = l.hopUsPerRow
	m["serve_queue.allocs_per_row"] = l.queueAllocsPerRow
	m["opt.adam_ms_per_step"] = l.adamNs / 1e6
}

// clientCodecNs estimates what a call of n rows with width-wide reply
// rows costs serve.Client in decoding the reply, from the per-value
// cost of the codec the ladder timed. The request is five floats a
// row, below the ladder's resolution.
func (l *ladder) clientCodecNs(binary bool, n, width int) float64 {
	perValue := l.jsonDecodeNs
	if binary {
		perValue = l.jgt1DecodeNs
	}
	return perValue / float64(l.batch*l.outDim) * float64(n*width)
}
