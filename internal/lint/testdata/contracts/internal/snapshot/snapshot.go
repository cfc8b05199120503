// Package snapshot is a stand-in for the snapshot package: a read-only
// Snapshot over the graph stand-in's node IDs.
package snapshot

import "disco/internal/graph"

// Snapshot is shared, read-only route state.
type Snapshot struct {
	parents [][]graph.NodeID
}

// Parent returns v's parent in the tree of landmark row root.
func (s *Snapshot) Parent(root int, v graph.NodeID) graph.NodeID { return s.parents[root][v] }
