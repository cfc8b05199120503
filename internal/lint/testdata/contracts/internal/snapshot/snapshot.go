// Package snapshot holds sealed storage: only this package writes it.
package snapshot

// Snapshot is shared, read-only route state.
type Snapshot struct {
	landmarks []int
}

// Landmarks returns the sealed landmark slice itself, not a copy.
func (s *Snapshot) Landmarks() []int { return s.landmarks }
