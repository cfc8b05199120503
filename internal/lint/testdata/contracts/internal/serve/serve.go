// Package serve reads snapshots.
package serve

import "disco/internal/snapshot"

// First returns a snapshot's first landmark.
func First(s *snapshot.Snapshot) int { return s.Landmarks()[0] }
