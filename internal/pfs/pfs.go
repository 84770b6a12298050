// Package pfs models a parallel file system (Lustre/GPFS class) as a set of
// object storage targets (OSTs) with FIFO service queues, per-open and
// per-seek latencies, and client-count interference. It runs on the
// deterministic DES kernel and supplies the I/O side of the paper's
// evaluation: the data-ingestion bottleneck of naive training (Section
// IV-C), the preload-versus-dynamic data-store comparison (Figure 10), and
// the preload-time degradation from inter-trainer interference at 64
// trainers that the paper attributes to GPFS contention (Figure 11).
//
// Files map to OSTs round-robin. A request's service time is its byte count
// divided by the OST's effective bandwidth — degraded once the OST's
// in-flight request count exceeds the saturation threshold, modelling the
// seek/metadata thrash of many clients interleaving on one target — plus
// open/seek latencies, and is floored by the client NIC bandwidth.
package pfs

import (
	"fmt"

	"repro/internal/des"
)

// Params fixes the file-system geometry and service model.
type Params struct {
	NumOSTs         int     // object storage targets
	OSTBandwidth    float64 // bytes/s per OST at low load
	OSTChannels     int     // concurrent streams one OST serves at full rate
	OpenLatency     float64 // seconds per file open (metadata RPC)
	SeekLatency     float64 // seconds per random intra-file access
	ClientBandwidth float64 // bytes/s cap per client process
	// SaturationInFlight is the per-OST in-flight request count beyond
	// which effective bandwidth degrades.
	SaturationInFlight int
	// Interference is the bandwidth degradation slope past saturation:
	// effBW = OSTBandwidth / (1 + Interference·overload).
	Interference float64
}

// GPFSLike returns parameters resembling the Lassen collaboration-zone file
// system: tens of OSTs, ~GB/s each, millisecond metadata ops.
func GPFSLike() Params {
	return Params{
		NumOSTs:            48,
		OSTBandwidth:       2.0e9,
		OSTChannels:        6,
		OpenLatency:        5e-3,
		SeekLatency:        1.5e-3,
		ClientBandwidth:    1.2e9,
		SaturationInFlight: 16,
		Interference:       0.6,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.NumOSTs < 1 || p.OSTChannels < 1 || p.OSTBandwidth <= 0 || p.ClientBandwidth <= 0 {
		return fmt.Errorf("pfs: invalid params %+v", p)
	}
	if p.SaturationInFlight < 1 || p.Interference < 0 || p.OpenLatency < 0 || p.SeekLatency < 0 {
		return fmt.Errorf("pfs: invalid params %+v", p)
	}
	return nil
}

// FS is one simulated file system attached to a des.Sim.
type FS struct {
	sim  *des.Sim
	p    Params
	osts []*des.Server
}

// New creates a file system on sim; it panics on invalid params.
func New(sim *des.Sim, p Params) *FS {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	fs := &FS{sim: sim, p: p, osts: make([]*des.Server, p.NumOSTs)}
	for i := range fs.osts {
		fs.osts[i] = des.NewServer(sim, p.OSTChannels)
	}
	return fs
}

// OSTFor returns the OST index file fileID is stored on.
func (fs *FS) OSTFor(fileID int) int {
	if fileID < 0 {
		fileID = -fileID
	}
	return fileID % fs.p.NumOSTs
}

// effBandwidth returns the service bandwidth an OST grants a new request
// given its instantaneous load. The stream rate is the lesser of the OST
// and client NIC rates; past the saturation depth the whole delivered
// stream degrades (seek and metadata thrash affect every byte served, not
// just the OST-side ceiling).
func (fs *FS) effBandwidth(ost *des.Server) float64 {
	bw := fs.p.OSTBandwidth
	if fs.p.ClientBandwidth < bw {
		bw = fs.p.ClientBandwidth
	}
	if over := ost.InFlight - fs.p.SaturationInFlight; over > 0 {
		bw = bw / (1 + fs.p.Interference*float64(over)/float64(fs.p.SaturationInFlight))
	}
	return bw
}

// Open charges a file-open (metadata) operation and fires done at the
// completion instant.
func (fs *FS) Open(fileID int, done func(t float64)) {
	ost := fs.osts[fs.OSTFor(fileID)]
	ost.Submit(fs.p.OpenLatency, func(_, end float64) {
		if done != nil {
			done(end)
		}
	})
}

// ReadSequential charges a streaming read of bytes from fileID — the preload
// access pattern — and fires done at completion.
func (fs *FS) ReadSequential(fileID int, bytes float64, done func(t float64)) {
	fs.read(fileID, bytes, 0, done)
}

// ReadRandom charges a random intra-file read (one seek plus the transfer) —
// the naive per-sample access pattern — and fires done at completion.
func (fs *FS) ReadRandom(fileID int, bytes float64, done func(t float64)) {
	fs.read(fileID, bytes, fs.p.SeekLatency, done)
}

func (fs *FS) read(fileID int, bytes, extraLatency float64, done func(t float64)) {
	if bytes < 0 {
		panic(fmt.Sprintf("pfs: negative read size %v", bytes))
	}
	ost := fs.osts[fs.OSTFor(fileID)]
	dur := extraLatency + bytes/fs.effBandwidth(ost)
	ost.Submit(dur, func(_, end float64) {
		if done != nil {
			done(end)
		}
	})
}
