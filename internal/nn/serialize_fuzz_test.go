package nn

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// fuzzNets is the set FuzzReadNetworks reads into: two small networks of
// the shapes TestUnmarshalNetworksErrors uses and the checkpoint package's
// golden file holds.
func fuzzNets() []*Network {
	rng := rand.New(rand.NewSource(43))
	return []*Network{
		MLP("a", []int{3, 4, 2}, ActLeakyReLU, ActNone, rng),
		MLP("b", []int{2, 5}, ActNone, ActSigmoid, rng),
	}
}

// FuzzReadNetworks feeds arbitrary bytes to the decoder under checkpoint
// loads and LTFB adoptions. Whatever the bytes, ReadNetworks returns an
// error or succeeds, never panics; it allocates no more than the codec's
// chunk, however long a blob claims to be; and a stream it accepts is the
// one WriteNetworks writes for the weights it read, byte for byte (NaN
// payloads included). The committed corpus holds the valid streams and the
// damaged ones of TestUnmarshalNetworksErrors and of the checkpoint
// package's TestLoadRejectsDamagedFiles, a blob that declares 4 GiB, and
// the first input the target found: a last blob that declares more bytes
// than the stream holds, which ReadNetworks used to accept.
func FuzzReadNetworks(f *testing.F) {
	nets := fuzzNets()
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ReadNetworks(r, nets)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > chunkBytes {
			t.Fatalf("reading %d bytes allocated %d, more than the codec's %d-byte chunk", len(data), grew, chunkBytes)
		}
		if err != nil {
			return // a refusal is always legal; a panic is not
		}
		if got := MarshalNetworks(nets); !bytes.Equal(got, data) {
			t.Fatalf("accepted %d bytes that re-marshal to %d different ones", len(data), len(got))
		}
	})
}
