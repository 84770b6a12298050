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
// Fetch is collective over the trainer communicator and blocking: a rank
// serves its own rows, sends what its peers need, then receives what it
// needs, and the train step starts when the mini-batch is complete. LBANN
// hides this shuffle behind back-propagation with background threads; here
// nothing does yet (ROADMAP direction 2(b)): on the reference workload the
// ranks already fill the cores, so there is no idle time an overlap could
// fill and no measurement that could tell it from this.
package datastore

import (
	"fmt"

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
	row   []float32 // one sample: where ModeNone reads before the x|y split
	out   []float32 // the message being packed for one destination
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
		row:   make([]float32, ds.Dim()),
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

// assignPreloadOwnership maps every sample to a rank: by backing file when
// the dataset is a set of bundle files (round-robin over files), by index
// otherwise.
func (s *Store) assignPreloadOwnership() {
	size := int32(s.c.Size())
	if bd, ok := s.ds.(*reader.BundleDataset); ok {
		for f := 0; f < bd.NumFiles(); f++ {
			o := int32(f) % size
			for _, i := range bd.FileSamples(f) {
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
				s.cache[i] = recs[k]
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
		s.cache[i] = buf
		s.stats.BackingReads++
	}
	return nil
}

// Fetch is the per-step collective exchange. batch is the step's whole
// index list, identical on every rank; rank r consumes its contiguous share
// of it (reader.PartitionContiguousOf), and Fetch writes sample k of this
// rank's share into row k of x (the leading x.Cols values) and of y (the
// rest), each exactly once. It blocks until the share is complete: local
// rows first, then one packed message to every rank that consumes rows held
// here, then one receive per remote owner in rank order. Sends are eager, so
// the fixed order cannot deadlock.
func (s *Store) Fetch(batch []int, x, y *tensor.Matrix) error {
	me, size := s.c.Rank(), s.c.Size()
	mine := reader.PartitionContiguousOf(batch, size, me)
	if x.Rows != len(mine) || y.Rows != len(mine) || x.Cols+y.Cols != s.dim {
		return fmt.Errorf("datastore: rank %d's share is %d samples of width %d, x is %dx%d and y %dx%d",
			me, len(mine), s.dim, x.Rows, x.Cols, y.Rows, y.Cols)
	}
	if s.mode == ModeNone {
		// Naive path: read everything this rank consumes from the files.
		for k, i := range mine {
			if err := s.ds.Sample(i, s.row); err != nil {
				return err
			}
			reader.SplitRow(s.row, k, x, y)
			s.stats.BackingReads++
		}
		return nil
	}
	tag := fetchTagBase + s.seq%(1<<15)
	s.seq++

	// Dynamic first-touch: unowned samples become owned by their consumer.
	// Every rank applies the same rule, so ownership stays consistent
	// without communication.
	if s.mode == ModeDynamic {
		for r := 0; r < size; r++ {
			for _, i := range reader.PartitionContiguousOf(batch, size, r) {
				if s.owner[i] == -1 {
					s.owner[i] = int32(r)
				}
			}
		}
	}

	// Serve local needs.
	for k, i := range mine {
		if int(s.owner[i]) != me {
			continue
		}
		row, err := s.held(i)
		if err != nil {
			return err
		}
		reader.SplitRow(row, k, x, y)
		s.stats.LocalHits++
	}

	// Send every sample I own that another rank consumes, one packed
	// message per destination, in the destination's batch order.
	for r := 0; r < size; r++ {
		if r == me {
			continue
		}
		s.out = s.out[:0]
		for _, i := range reader.PartitionContiguousOf(batch, size, r) {
			if int(s.owner[i]) != me {
				continue
			}
			row, err := s.held(i)
			if err != nil {
				return err
			}
			s.out = append(s.out, row...)
		}
		if len(s.out) > 0 {
			s.c.Send(r, tag, s.out) // Send copies: out is free again
			s.stats.BytesSent += int64(4 * len(s.out))
		}
	}

	// Receive from every remote owner of my samples: its message holds them
	// in my batch order.
	for o := 0; o < size; o++ {
		if o == me {
			continue
		}
		n := 0
		for _, i := range mine {
			if int(s.owner[i]) == o {
				n++
			}
		}
		if n == 0 {
			continue // it sent nothing
		}
		msg := s.c.Recv(o, tag)
		if len(msg) != n*s.dim {
			return fmt.Errorf("datastore: rank %d sent %d floats, want %d", o, len(msg), n*s.dim)
		}
		s.stats.BytesReceived += int64(4 * len(msg))
		s.stats.RemoteSamples += int64(n)
		for k, i := range mine {
			if int(s.owner[i]) == o {
				reader.SplitRow(msg[:s.dim], k, x, y)
				msg = msg[s.dim:]
			}
		}
	}
	return nil
}

// held returns the row of sample i, which this rank owns, from its cache.
// A miss reads the backing dataset and caches the row: in dynamic mode the
// sample is being touched for the first time, perhaps by a remote consumer.
func (s *Store) held(i int) ([]float32, error) {
	if row, ok := s.cache[i]; ok {
		return row, nil
	}
	row := make([]float32, s.dim)
	if err := s.ds.Sample(i, row); err != nil {
		return nil, err
	}
	s.cache[i] = row
	s.stats.BackingReads++
	return row, nil
}
