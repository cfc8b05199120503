// Package snapshot holds sealed storage: only this package writes it.
// Its accessor set mirrors the real sealed surface.
package snapshot

import "disco/internal/graph"

// Snapshot is shared, read-only route state.
type Snapshot struct {
	parents [][]graph.NodeID
	g       *graph.Graph
}

// ForestParents returns the sealed parent row of a landmark tree.
func (s *Snapshot) ForestParents(root int) []graph.NodeID { return s.parents[root] }

// Graph returns the shared topology.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// PathFrom returns a fresh allocation, so it is not sealed.
func (s *Snapshot) PathFrom(root int, v graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, 4)
	for u := v; u >= 0; u = s.parents[root][u] {
		out = append(out, u)
	}
	return out
}

// rebuild writes the storage it owns: the defining package is exempt.
func (s *Snapshot) rebuild(root int) {
	ps := s.ForestParents(root)
	for i := range ps {
		ps[i] = -1
	}
}
