package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/jag"
	"repro/internal/serve"
)

// connSpec describes the traffic of one generator connection. Every
// input it sends is a pure function of (seed, workload, connection
// index, call index): the program under test receives only the
// generated inputs.
type connSpec struct {
	model  string
	binary bool // JGT1 frames; JSON otherwise
	lane   serve.Priority
	rows   int  // rows per call
	timed  bool // its calls are the workload's p50/p90 samples
	// rate > 0 makes the connection open loop: call k is due at
	// (k + phase + jitter)/rate seconds, jitter drawn from [0, 0.25), and
	// its latency is taken from that time. rate 0 is a closed loop: the
	// next call leaves when the previous reply has arrived.
	rate  float64
	phase float64
	// zipfKeys > 0 draws each row's design point Zipf(s=1.1) from that
	// many keys instead of fresh from the unit cube.
	zipfKeys uint64
	// invertEvery n > 0 sends every nth call to "invert".
	invertEvery int
}

// plannedCall is one generated call.
type plannedCall struct {
	method string
	rows   [][]float32
	due    float64 // open loop: seconds after the schedule's origin
}

// planner replays one connection's input stream.
type planner struct {
	spec connSpec
	seed int64
	rng  *rand.Rand
	zipf *rand.Zipf
	k    int
}

// subSeed derives an independent stream seed from the run seed and a
// stream name.
func subSeed(seed int64, parts ...string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return int64(h.Sum64())
}

func newPlanner(seed int64, workload string, conn int, spec connSpec) *planner {
	s := subSeed(seed, workload, string(rune('a'+conn)))
	p := &planner{spec: spec, seed: s, rng: rand.New(rand.NewSource(s))}
	if spec.zipfKeys > 0 {
		p.zipf = rand.NewZipf(p.rng, 1.1, 1, spec.zipfKeys-1)
	}
	return p
}

// keyRow maps a Zipf key to its design point: the same key is the same
// row on every call, so the server's LRU sees a repeat.
func keyRow(seed int64, key uint64) []float32 {
	row := make([]float32, jag.InputDim)
	x := uint64(seed) ^ key*0x9E3779B97F4A7C15
	for j := range row {
		// splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		row[j] = float32(z>>40) / (1 << 24)
	}
	return row
}

// next generates the connection's next call.
func (p *planner) next() plannedCall {
	k := p.k
	p.k++
	c := plannedCall{method: serve.MethodPredict}
	if p.spec.invertEvery > 0 && k%p.spec.invertEvery == p.spec.invertEvery-1 {
		c.method = serve.MethodInvert
	}
	if p.spec.rate > 0 {
		c.due = (float64(k) + p.spec.phase + 0.25*p.rng.Float64()) / p.spec.rate
	}
	c.rows = make([][]float32, p.spec.rows)
	for i := range c.rows {
		if p.zipf != nil {
			c.rows[i] = keyRow(p.seed, p.zipf.Uint64())
			continue
		}
		row := make([]float32, jag.InputDim)
		for j := range row {
			row[j] = p.rng.Float32()
		}
		c.rows[i] = row
	}
	return c
}

// digestCalls is how many calls of each connection the input digest
// covers: a closed loop sends as many calls as the server lets it, so
// the digest is taken over a fixed prefix of every stream.
const digestCalls = 512

func hashFloats(h hash.Hash, xs []float32) {
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
}

// servingDigest fingerprints the traffic a seed generates for a
// workload, so two runs can be shown to have sent the same inputs.
func servingDigest(seed int64, workload string, conns []connSpec) string {
	h := sha256.New()
	for i, spec := range conns {
		p := newPlanner(seed, workload, i, spec)
		for k := 0; k < digestCalls; k++ {
			c := p.next()
			h.Write([]byte(c.method))
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.due))
			h.Write(b[:])
			for _, row := range c.rows {
				hashFloats(h, row)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
