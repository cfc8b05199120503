// snapmutate, outside the defining package: every write through a
// sealed accessor's result must be flagged, copies and fresh allocations
// must not.

package eval

import (
	"sort"

	"disco/internal/graph"
	"disco/internal/snapshot"
)

// --- flagged: writes through sealed storage ---

func writeRow(s *snapshot.Snapshot) {
	row := s.ForestParents(0)
	row[0] = 3 // want `write through sealed snapshot storage`
}

func writeDirect(s *snapshot.Snapshot) {
	s.ForestParents(0)[1] = 2 // want `write through sealed snapshot storage`
}

func writeThroughAlias(s *snapshot.Snapshot) {
	p := s.ForestParents(0)
	q := p
	q[1] = 0 // want `write through sealed snapshot storage`
}

func incThroughAlias(s *snapshot.Snapshot) {
	p := s.ForestParents(0)
	p[2]++ // want `write through sealed snapshot storage`
}

func appendSealed(s *snapshot.Snapshot) []graph.NodeID {
	row := s.ForestParents(0)
	return append(row, 1) // want `append to a slice aliasing sealed snapshot storage`
}

func sortShared(s *snapshot.Snapshot) {
	parents := s.ForestParents(0)
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] }) // want `in-place sort of sealed snapshot storage`
}

func mutateTopology(s *snapshot.Snapshot) {
	s.Graph().AddEdge(1, 2, 1.5) // want `AddEdge on a graph obtained from a sealed snapshot`
}

func mutateTopologyAlias(s *snapshot.Snapshot) {
	g := s.Graph()
	g.Finalize() // want `Finalize on a graph obtained from a sealed snapshot`
}

// --- allowed ---

func valueCopyBreaksTaint(s *snapshot.Snapshot) graph.NodeID {
	p := s.ForestParents(0)[1] // a value copied out of the slice is the caller's own
	q := &p
	*q = 7
	return p
}

func freshAllocation(s *snapshot.Snapshot, v graph.NodeID) {
	path := s.PathFrom(0, v)
	path[0] = 5 // PathFrom returns a fresh slice per call
}

func copyThenSort(s *snapshot.Snapshot) []graph.NodeID {
	shared := s.ForestParents(0)
	own := make([]graph.NodeID, len(shared))
	copy(own, shared)
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	return own
}

func readOnly(s *snapshot.Snapshot) graph.NodeID {
	var total graph.NodeID
	for _, p := range s.ForestParents(0) {
		total += p
	}
	return total
}

// --- waived ---

func waivedWrite(s *snapshot.Snapshot) {
	ps := s.ForestParents(0)
	//disco:mutates scratch snapshot owned by this benchmark, never forked
	ps[0] = 0
}
