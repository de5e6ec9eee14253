package sweep

// Cache is an empty stub kept so that callers built against the
// cross-sweep result cache still compile; Run ignores it.
//
// Deprecated: cells are shared only within a grid, by fingerprint.
type Cache struct{}

// NewCache returns an empty stub.
//
// Deprecated: Run ignores Exec.Cache.
func NewCache() *Cache { return &Cache{} }

// CacheStats is the stub's always-zero lookup report.
//
// Deprecated: Run ignores Exec.Cache.
type CacheStats struct {
	Hits    int
	Misses  int
	Entries int
}

// Stats returns zero counters.
//
// Deprecated: Run ignores Exec.Cache.
func (c *Cache) Stats() CacheStats { return CacheStats{} }
