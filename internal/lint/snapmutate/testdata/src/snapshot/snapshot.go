// Package snapshot is a stub of the repo's snapshot package for
// snapmutate testdata. Its accessor set mirrors the real sealed
// surface; the writes below are in the defining package and must be
// exempt.
package snapshot

import "graph"

type Snapshot struct {
	landmarks []graph.NodeID
	parents   [][]graph.NodeID
	g         *graph.Graph
}

func (s *Snapshot) Landmarks() []graph.NodeID             { return s.landmarks }
func (s *Snapshot) ForestParents(root int) []graph.NodeID { return s.parents[root] }
func (s *Snapshot) Graph() *graph.Graph                   { return s.g }

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
