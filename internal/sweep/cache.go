package sweep

import "sync"

// Cache shares cell results across sweeps. Entries are keyed by the cell's
// fingerprint — a canonical description of the full simulation
// configuration — so two grids that overlap (the same topology, workload,
// scheduler and chunking) simulate the shared cells once, whichever grid
// runs first.
//
// The zero Cache is not usable; construct with NewCache. All methods are
// safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	m      map[string]any
	hits   int
	misses int
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]any)}
}

// CacheStats reports lookup traffic and occupancy.
type CacheStats struct {
	// Hits and Misses count lookups (one per deduplicated work unit, not
	// per grid cell).
	Hits   int
	Misses int
	// Entries is the number of stored results.
	Entries int
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.m)}
}

func (c *Cache) lookup(fingerprint string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[fingerprint]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

func (c *Cache) store(fingerprint string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[fingerprint] = v
}
