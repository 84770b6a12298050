//go:build exhaustive

package tensor

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestSigmoidExhaustive holds sigmoid to sigmoidRef on every one of the 2^32
// float32 bit patterns (any NaN equals any NaN, as everywhere in kernel.go).
// About half a minute on two cores:
//
//	go test -tags exhaustive -run TestSigmoidExhaustive ./internal/tensor
func TestSigmoidExhaustive(t *testing.T) {
	const block = 1 << 16
	workers := uint64(runtime.GOMAXPROCS(0))
	var (
		mu         sync.Mutex
		mismatches uint64
		first      = ^uint64(0)
		wg         sync.WaitGroup
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := make([]float32, block)
			dst := make([]float32, block)
			var bad uint64
			low := ^uint64(0)
			for base := w * block; base < 1<<32; base += workers * block {
				for i := range src {
					src[i] = math.Float32frombits(uint32(base) + uint32(i))
				}
				sigmoid(dst, src)
				for i, v := range src {
					if !sameBits(dst[i], sigmoidRef(v)) {
						bad++
						low = min(low, base+uint64(i))
					}
				}
			}
			mu.Lock()
			mismatches += bad
			first = min(first, low)
			mu.Unlock()
		}()
	}
	wg.Wait()
	t.Logf("%d bit patterns, %d mismatches", uint64(1)<<32, mismatches)
	if mismatches > 0 {
		v := math.Float32frombits(uint32(first))
		t.Fatalf("%d mismatches; the first: sigmoid(%g = %#08x), want %#08x", mismatches, v, uint32(first), math.Float32bits(sigmoidRef(v)))
	}
}
