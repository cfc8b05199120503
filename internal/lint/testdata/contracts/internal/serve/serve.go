// Package serve reads snapshots.
package serve

import (
	"disco/internal/graph"
	"disco/internal/snapshot"
)

// First returns a snapshot's first landmark.
func First(s *snapshot.Snapshot) graph.NodeID { return s.Landmarks()[0] }
