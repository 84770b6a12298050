package serve

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"
)

// cacheQuantum is the grid step inputs are snapped to when forming cache
// keys. The JAG input cube is [0,1]^5, so 1e-6 is effectively exact.
const cacheQuantum = 1e-6

// quantKey snaps each input coordinate to a grid of step q and packs
// the bit patterns of the snapped values into a compact string key.
// Two inputs within the same grid cell share a cache entry, so q is
// the knob between exact-match caching (tiny q) and tolerant caching
// for near-duplicate queries. Keying on the rounded value's float bits
// rather than an integer cell index keeps coordinates far outside the
// unit cube distinct (an int64 cell index would overflow and collapse
// them all onto one sentinel key).
func quantKey(x []float32, q float64) string {
	buf := make([]byte, 4*len(x))
	for i, v := range x {
		cell := float32(math.Round(float64(v)/q) * q)
		if cell == 0 {
			// math.Round of a small negative yields -0, whose float32
			// bit pattern differs from +0: without this, identical grid
			// cells straddling zero would never share a cache entry.
			cell = 0
		}
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(cell))
	}
	return string(buf)
}

// lru is a mutex-guarded fixed-capacity LRU map from quantized input
// keys to prediction rows. Values are treated as immutable: put stores
// the caller's slice and get returns it without copying, so neither
// side may mutate a row after it enters the cache.
//
// Capacity counts entries, so what a full cache holds is entries × the
// row width × 4 bytes: 1 024 rows of a 49 167-wide model are 201 MB.
// Server.finish therefore admits rows by lane (see there); size reports
// what the cache holds now.
type lru struct {
	mu    sync.Mutex
	cap   int
	bytes int64      // 4 × the floats held across all entries
	order *list.List // front = most recently used
	items map[string]*list.Element
}

// entry is one cached prediction.
type entry struct {
	key string
	y   []float32
}

// newLRU creates a cache holding at most capacity entries.
func newLRU(capacity int) *lru {
	return &lru{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached prediction for key, refreshing its recency.
func (c *lru) get(key string) ([]float32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry).y, true
}

// put inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (c *lru) put(key string, y []float32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += 4 * int64(len(y))
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes -= 4 * int64(len(e.y))
		e.y = y
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry{key: key, y: y})
	if c.order.Len() > c.cap {
		old := c.order.Remove(c.order.Back()).(*entry)
		c.bytes -= 4 * int64(len(old.y))
		delete(c.items, old.key)
	}
}

// size returns the current entry count and the bytes of row data those
// entries hold.
func (c *lru) size() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.bytes
}
