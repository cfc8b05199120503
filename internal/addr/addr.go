// Package addr implements Disco addresses (§4.2): the identifier of a
// node's closest landmark l_v paired with an explicit route l_v⇝v, encoded
// compactly — each hop at a node of degree d costs ceil(log2 d) bits (the
// per-hop label is the next-hop's index, "port", in the node's sorted
// neighbor list, following the format of Pathlet routing [19]). Addresses
// are variable-length and location-dependent, but are used only internally
// by the protocol and updated as the topology changes; names stay flat.
package addr

import (
	"fmt"

	"disco/internal/bits"
	"disco/internal/graph"
)

// Address is a node's routable locator: its nearest landmark plus the
// explicit route from that landmark to the node.
type Address struct {
	Landmark graph.NodeID   // the node's closest landmark l_v
	Dest     graph.NodeID   // the node itself (for simulator bookkeeping)
	Ports    []uint16       // per-hop ports along l_v⇝v ([] if Dest == Landmark)
	Path     []graph.NodeID // the full node path l_v⇝v (len = len(Ports)+1)
	bitLen   int            // encoded explicit-route size in bits
}

// Make builds the address for the node at the end of path, where path is
// the shortest path from its nearest landmark (path[0]) to the node
// (path[len-1]). The graph must be Finalized.
func Make(g *graph.Graph, path []graph.NodeID) Address {
	if len(path) == 0 {
		panic("addr: empty path")
	}
	a := Address{
		Landmark: path[0],
		Dest:     path[len(path)-1],
		Path:     append([]graph.NodeID(nil), path...),
	}
	var w bits.Writer
	w.WriteGamma(uint64(len(path))) // hop count + 1, >= 1
	for i := 0; i+1 < len(path); i++ {
		p := g.PortOf(path[i], path[i+1])
		if p < 0 {
			panic(fmt.Sprintf("addr: path step %d: %d-%d not adjacent", i, path[i], path[i+1]))
		}
		a.Ports = append(a.Ports, uint16(p))
		w.WriteBits(uint64(p), bits.Width(g.Degree(path[i])))
	}
	a.bitLen = w.Len()
	return a
}

// Bits returns the encoded size of the explicit route in bits (including
// the hop-count prefix). This is the quantity behind the paper's
// address-size measurements ("maximum size of our addresses is just 10.625
// bytes", §4.2).
func (a Address) Bits() int { return a.bitLen }

// Hops returns the number of hops on the explicit route.
func (a Address) Hops() int { return len(a.Ports) }

// SizeModel converts routing-table entries to bytes for the Fig. 7 style
// accounting: every stored entry carries a destination name and an address
// (landmark name + explicit route). NameBytes is 4 to model IPv4-sized
// names and 16 for IPv6-sized names.
type SizeModel struct {
	NameBytes int
}

// PlainEntryBytes returns the size of a table entry that stores only a
// destination name and a next hop (vicinity, cluster and landmark routing
// entries): name + next-hop port (2 bytes).
func (m SizeModel) PlainEntryBytes() float64 {
	return float64(m.NameBytes) + 2
}
