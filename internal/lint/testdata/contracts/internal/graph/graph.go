// Package graph is a stand-in for the graph package: the node ID type
// the snapshot stand-in and its importers share.
package graph

// NodeID names a node.
type NodeID int32
