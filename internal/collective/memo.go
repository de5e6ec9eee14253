package collective

// Memo is an inert stand-in for the deleted cross-run collective memo. Every
// collective runs live, so a Memo records and replays nothing. The type,
// NewMemo and Stats remain only because the end-to-end benchmark in bench/
// still reports memo counters; delete this file once those counters go.
type Memo struct{}

// NewMemo returns an inert memo.
func NewMemo() *Memo { return &Memo{} }

// Stats reports zero hits, misses and entries.
func (m *Memo) Stats() (hits, misses uint64, entries int) { return 0, 0, 0 }
