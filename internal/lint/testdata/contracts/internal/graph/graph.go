// Package graph is a stand-in for the graph package: a Graph with the
// real one's mutators, AddEdge and Finalize.
package graph

// NodeID names a node.
type NodeID int32

// Graph is an adjacency structure.
type Graph struct{}

// AddEdge adds an edge.
func (g *Graph) AddEdge(a, b NodeID, w float64) {}

// Finalize seals the adjacency layout.
func (g *Graph) Finalize() {}
