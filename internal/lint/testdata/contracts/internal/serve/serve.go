// Package serve reads snapshots.
package serve

import (
	"disco/internal/graph"
	"disco/internal/snapshot"
)

// first returns node 0's parent in the first landmark's tree.
func first(s *snapshot.Snapshot) graph.NodeID { return s.ForestParents(0)[0] }
