//go:build race

package et

// raceEnabled reports whether the race detector is on. It makes sync.Pool,
// which encoding/json draws its buffers from, drop items at random, so
// allocation counts through Encode are not reproducible under it.
const raceEnabled = true
