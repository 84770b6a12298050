// Package datastore implements the paper's distributed in-memory data store
// (Section III-B): each rank of a trainer owns a shard of the training
// samples in host memory, and at every step the owners ship the samples the
// upcoming mini-batch needs to the ranks that will consume them, so that
// after the store is populated no data is read from the file system.
//
// Three modes reproduce the three configurations of Figure 10:
//
//   - ModeNone: the naive reader — every mini-batch access goes back to the
//     backing (bundle-file) dataset.
//   - ModeDynamic: samples are read from files as they are first consumed
//     (epoch 0) and cached at the consuming rank, which becomes their owner;
//     later epochs exchange cached samples instead of touching files.
//   - ModePreload: ownership is assigned by file — each backing file is read
//     once, wholly, by exactly one rank before training (the paper's
//     "minimizes the number of files each process opens concurrently").
//
// Fetch is collective over the trainer communicator and uses non-blocking
// receives so a trainer can overlap the shuffle with back-propagation, as
// LBANN does with background threads.
package datastore

import (
	"container/list"
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/reader"
	"repro/internal/tensor"
)

// Mode selects the data-store behaviour.
type Mode int

// The three data-ingestion configurations of Figure 10.
const (
	ModeNone Mode = iota
	ModeDynamic
	ModePreload
)

// String names the mode as in the paper's figure legends.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "dynamic-loading"
	case ModeDynamic:
		return "data-store-dynamic"
	case ModePreload:
		return "data-store-preloaded"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Stats counts data-movement events; the performance model charges time for
// exactly these quantities.
type Stats struct {
	LocalHits     int64 // samples served from this rank's own shard
	RemoteSamples int64 // samples received from peer ranks
	BackingReads  int64 // samples read from the backing dataset
	BytesSent     int64
	BytesReceived int64
	FilesPreread  int64 // whole files read during Preload
	Evictions     int64 // samples dropped by the capacity bound
}

// Store is one rank's view of a trainer's distributed data store. All ranks
// of the trainer must perform the same sequence of collective calls
// (Preload, Fetch) with identical arguments.
type Store struct {
	c     *comm.Comm
	ds    reader.Dataset
	mode  Mode
	dim   int
	owner []int32 // sample -> owning rank; -1 while unknown (dynamic mode)
	cache map[int][]float32
	seq   int
	stats Stats

	// Capacity bound (see SetCapacity); zero means unlimited.
	capacity int
	lru      *list.List
	lruIndex map[int]*list.Element
}

// fetchTagBase keeps store traffic clear of the trainer's gradient and
// tournament tags.
const fetchTagBase = 1 << 20

// New creates this rank's store over the trainer communicator c and backing
// dataset ds.
func New(c *comm.Comm, ds reader.Dataset, mode Mode) *Store {
	s := &Store{
		c:     c,
		ds:    ds,
		mode:  mode,
		dim:   ds.Dim(),
		owner: make([]int32, ds.Len()),
		cache: map[int][]float32{},
	}
	switch mode {
	case ModeDynamic:
		for i := range s.owner {
			s.owner[i] = -1
		}
	case ModePreload:
		s.assignPreloadOwnership()
	}
	return s
}

// Stats returns a snapshot of this rank's data-movement counters.
func (s *Store) Stats() Stats { return s.stats }

// Owner returns the owning rank of sample i, or -1 if not yet owned.
func (s *Store) Owner(i int) int { return int(s.owner[i]) }

// OwnedSamples returns how many samples this rank currently holds.
func (s *Store) OwnedSamples() int { return len(s.cache) }

// assignPreloadOwnership maps every sample to a rank: by backing file when
// the dataset is file-mapped (round-robin over files), by index otherwise.
func (s *Store) assignPreloadOwnership() {
	size := int32(s.c.Size())
	if fm, ok := s.ds.(reader.FileMapped); ok {
		for f := 0; f < fm.NumFiles(); f++ {
			o := int32(f) % size
			for _, i := range fm.FileSamples(f) {
				s.owner[i] = o
			}
		}
		return
	}
	for i := range s.owner {
		s.owner[i] = int32(i) % size
	}
}

// Preload populates this rank's shard by reading every sample it owns from
// the backing dataset, file-at-a-time when possible. It must be called on
// every rank in ModePreload before the first Fetch.
func (s *Store) Preload() error {
	if s.mode != ModePreload {
		return fmt.Errorf("datastore: Preload in mode %v", s.mode)
	}
	me := int32(s.c.Rank())
	if bd, ok := s.ds.(*reader.BundleDataset); ok {
		for f := 0; f < bd.NumFiles(); f++ {
			idx := bd.FileSamples(f)
			if len(idx) == 0 || s.owner[idx[0]] != me {
				continue
			}
			recs, err := bd.ReadFile(f)
			if err != nil {
				return err
			}
			s.stats.FilesPreread++
			for k, i := range idx {
				if err := s.admit(i, recs[k]); err != nil {
					return err
				}
				s.stats.BackingReads++
			}
		}
		return nil
	}
	for i := range s.owner {
		if s.owner[i] != me {
			continue
		}
		buf := make([]float32, s.dim)
		if err := s.ds.Sample(i, buf); err != nil {
			return err
		}
		if err := s.admit(i, buf); err != nil {
			return err
		}
		s.stats.BackingReads++
	}
	return nil
}

// Fetch is the per-step collective exchange: batchParts[r] lists the sample
// indices rank r consumes this step, identical on every rank. It returns
// this rank's samples as a row-per-sample matrix, in batchParts[rank] order.
func (s *Store) Fetch(batchParts [][]int) (*tensor.Matrix, error) {
	req, err := s.FetchAsync(batchParts)
	if err != nil {
		return nil, err
	}
	return req.Wait()
}

// Pending is an in-flight Fetch whose receives have been posted; Wait
// assembles the mini-batch. The trainer can run compute between FetchAsync
// and Wait to overlap the shuffle with the backward pass.
type Pending struct {
	store *Store
	mine  []int
	rows  map[int][]float32 // locally resolved samples
	recvs []pendingRecv
}

type pendingRecv struct {
	from    int
	samples []int
	req     *comm.Request
}

// FetchAsync starts the exchange for a mini-batch and returns a Pending.
func (s *Store) FetchAsync(batchParts [][]int) (*Pending, error) {
	if len(batchParts) != s.c.Size() {
		return nil, fmt.Errorf("datastore: %d batch parts for %d ranks", len(batchParts), s.c.Size())
	}
	me := s.c.Rank()
	tag := fetchTagBase + s.seq%(1<<15)
	s.seq++

	// Dynamic first-touch: unowned samples become owned by their consumer.
	// Every rank applies the same rule, so ownership stays consistent
	// without communication.
	if s.mode == ModeDynamic {
		for r, part := range batchParts {
			for _, i := range part {
				if s.owner[i] == -1 {
					s.owner[i] = int32(r)
				}
			}
		}
	}

	p := &Pending{store: s, mine: batchParts[me], rows: map[int][]float32{}}

	if s.mode == ModeNone {
		// Naive path: read everything this rank consumes from the files.
		for _, i := range p.mine {
			buf := make([]float32, s.dim)
			if err := s.ds.Sample(i, buf); err != nil {
				return nil, err
			}
			p.rows[i] = buf
			s.stats.BackingReads++
		}
		return p, nil
	}

	// Serve local needs and materialize first-touch reads.
	for _, i := range p.mine {
		if int(s.owner[i]) != me {
			continue
		}
		row, ok := s.cache[i]
		if !ok {
			row = make([]float32, s.dim)
			if err := s.ds.Sample(i, row); err != nil {
				return nil, err
			}
			if err := s.admit(i, row); err != nil {
				return nil, err
			}
			s.stats.BackingReads++
		} else {
			s.touch(i)
		}
		p.rows[i] = row
		s.stats.LocalHits++
	}

	// Send every sample I own that another rank consumes, one packed
	// message per destination, in the destination's batch order.
	for r, part := range batchParts {
		if r == me {
			continue
		}
		var payload []float32
		for _, i := range part {
			if int(s.owner[i]) != me {
				continue
			}
			row, ok := s.cache[i]
			if !ok {
				// Dynamic mode: a sample first consumed remotely in a prior
				// step may be owned here without being cached yet, or it may
				// have been evicted under a capacity bound.
				row = make([]float32, s.dim)
				if err := s.ds.Sample(i, row); err != nil {
					return nil, err
				}
				if err := s.admit(i, row); err != nil {
					return nil, err
				}
				s.stats.BackingReads++
			} else {
				s.touch(i)
			}
			payload = append(payload, row...)
		}
		if payload != nil {
			s.c.Send(r, tag, payload)
			s.stats.BytesSent += int64(4 * len(payload))
		}
	}

	// Post one receive per distinct remote owner of my samples.
	needed := map[int][]int{}
	for _, i := range p.mine {
		if o := int(s.owner[i]); o != me {
			needed[o] = append(needed[o], i)
		}
	}
	for o := 0; o < s.c.Size(); o++ {
		idx := needed[o]
		if idx == nil {
			continue
		}
		p.recvs = append(p.recvs, pendingRecv{from: o, samples: idx, req: s.c.Irecv(o, tag)})
	}
	return p, nil
}

// Wait completes the exchange and returns this rank's mini-batch rows in
// consumption order.
func (p *Pending) Wait() (*tensor.Matrix, error) {
	s := p.store
	for _, r := range p.recvs {
		payload := r.req.Wait()
		want := len(r.samples) * s.dim
		if len(payload) != want {
			return nil, fmt.Errorf("datastore: rank %d sent %d floats, want %d", r.from, len(payload), want)
		}
		s.stats.BytesReceived += int64(4 * len(payload))
		s.stats.RemoteSamples += int64(len(r.samples))
		for k, i := range r.samples {
			p.rows[i] = payload[k*s.dim : (k+1)*s.dim]
		}
	}
	m := tensor.New(len(p.mine), s.dim)
	for r, i := range p.mine {
		row, ok := p.rows[i]
		if !ok {
			return nil, fmt.Errorf("datastore: sample %d missing after exchange", i)
		}
		copy(m.Row(r), row)
	}
	return m, nil
}

// StoreBytes returns the approximate host-memory footprint of this rank's
// shard, which the performance model compares against node capacity.
func (s *Store) StoreBytes() float64 {
	return float64(len(s.cache)) * float64(4*s.dim)
}

// ImbalanceFactor returns max over ranks of owned samples divided by the
// balanced share — 1.0 is perfect balance. It is collective (allreduce).
// Dynamic ownership follows the epoch-0 consumption pattern and is typically
// less balanced than preload's file-round-robin, which is why the paper's
// preloaded store still beats the dynamic store in steady state.
func (s *Store) ImbalanceFactor() float64 {
	buf := []float32{float32(len(s.cache))}
	s.c.AllreduceMax(buf)
	share := float64(s.ds.Len()) / float64(s.c.Size())
	if share == 0 {
		return 1
	}
	return math.Max(1, float64(buf[0])/share)
}
