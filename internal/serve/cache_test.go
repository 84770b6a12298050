package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestLRUEviction checks capacity enforcement and recency order.
func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.put("a", []float32{1})
	c.put("b", []float32{2})
	if _, ok := c.get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.put("c", []float32{3}) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if n, bytes := c.size(); n != 2 || bytes != 8 {
		t.Fatalf("size = %d entries, %d bytes, want 2 and 8", n, bytes)
	}
}

// TestLRUUpdate checks that re-putting a key refreshes the value
// without growing the cache, and that the byte count follows the row
// that replaced the old one.
func TestLRUUpdate(t *testing.T) {
	c := newLRU(2)
	c.put("a", []float32{1})
	c.put("a", []float32{9, 9, 9})
	y, ok := c.get("a")
	if !ok || y[0] != 9 {
		t.Fatalf("got %v, want [9 9 9]", y)
	}
	if n, bytes := c.size(); n != 1 || bytes != 12 {
		t.Fatalf("size = %d entries, %d bytes, want 1 and 12", n, bytes)
	}
}

// TestLRUBytesFollowEviction: the byte count is the sum over the rows
// held, whatever their widths (predict and invert rows share one cache).
func TestLRUBytesFollowEviction(t *testing.T) {
	c := newLRU(2)
	c.put("wide", make([]float32, 100))
	c.put("narrow", make([]float32, 5))
	if n, bytes := c.size(); n != 2 || bytes != 420 {
		t.Fatalf("size = %d entries, %d bytes, want 2 and 420", n, bytes)
	}
	c.put("narrow2", make([]float32, 5)) // evicts wide
	if n, bytes := c.size(); n != 2 || bytes != 40 {
		t.Fatalf("after evicting the wide row: %d entries, %d bytes, want 2 and 40", n, bytes)
	}
}

// TestQuantKey checks that nearby inputs share a key only within the
// quantization cell.
func TestQuantKey(t *testing.T) {
	a := []float32{0.5, 0.1, 0.9, 0.3, 0.7}
	b := []float32{0.5 + 1e-9, 0.1, 0.9, 0.3, 0.7}
	if quantKey(a, 1e-3) != quantKey(b, 1e-3) {
		t.Fatal("inputs in the same cell got different keys")
	}
	c := []float32{0.6, 0.1, 0.9, 0.3, 0.7}
	if quantKey(a, 1e-3) == quantKey(c, 1e-3) {
		t.Fatal("distinct inputs collided")
	}
	if quantKey(a, 1e-3) == quantKey(a[:4], 1e-3) {
		t.Fatal("different lengths collided")
	}
	// Coordinates far outside the unit cube must stay distinct (an
	// integer cell index would overflow and collapse them).
	big1 := []float32{1e30, 0.1, 0.9, 0.3, 0.7}
	big2 := []float32{2e30, 0.1, 0.9, 0.3, 0.7}
	if quantKey(big1, 1e-6) == quantKey(big2, 1e-6) {
		t.Fatal("huge distinct inputs collided")
	}
}

// TestQuantKeyNegativeZero is a regression test for -0/+0 cell
// splitting: math.Round of a small negative yields -0, whose float32
// bit pattern differs from +0, so identical grid cells straddling zero
// used to map to different keys and never share a cache entry.
func TestQuantKeyNegativeZero(t *testing.T) {
	neg := []float32{-1e-9, 0.1, 0.9, 0.3, 0.7}
	pos := []float32{1e-9, 0.1, 0.9, 0.3, 0.7}
	if quantKey(neg, 1e-3) != quantKey(pos, 1e-3) {
		t.Fatal("cells straddling zero got different keys")
	}
	nz := []float32{float32(math.Copysign(0, -1)), 0, 0, 0, 0}
	if quantKey(nz, 1e-6) != quantKey(make([]float32, 5), 1e-6) {
		t.Fatal("-0 and +0 inputs got different keys")
	}
}

// TestLRUConcurrent exercises the cache from many goroutines for the
// race detector.
func TestLRUConcurrent(t *testing.T) {
	c := newLRU(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%64)
				if y, ok := c.get(key); ok && len(y) != 1 {
					t.Errorf("corrupt value for %s", key)
					return
				}
				c.put(key, []float32{float32(i)})
			}
		}(g)
	}
	wg.Wait()
	if n, bytes := c.size(); n > 32 || bytes != 4*int64(n) {
		t.Fatalf("size = %d entries, %d bytes, want <= 32 entries of 4 bytes", n, bytes)
	}
}
