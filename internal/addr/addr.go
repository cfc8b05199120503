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

// Bytes returns the explicit-route size rounded up to whole bytes.
func (a Address) Bytes() float64 { return float64((a.bitLen + 7) / 8) }

// Hops returns the number of hops on the explicit route.
func (a Address) Hops() int { return len(a.Ports) }

// Encode serializes the explicit route to a bit string; Decode re-walks it
// over the graph from the landmark. Encode/Decode exist to prove the wire
// format is self-contained — the simulator uses the cached Path.
func (a Address) Encode(g *graph.Graph) ([]byte, int) {
	var w bits.Writer
	w.WriteGamma(uint64(len(a.Path)))
	for i, p := range a.Ports {
		w.WriteBits(uint64(p), bits.Width(g.Degree(a.Path[i])))
	}
	return w.Bytes(), w.Len()
}

// Decode reconstructs the node path from an encoded explicit route starting
// at the given landmark. A malformed route — bit count outside buf, a
// truncated or oversized hop count, a port past a node's degree, trailing
// bits — is an error, never a panic.
func Decode(g *graph.Graph, lm graph.NodeID, buf []byte, nbit int) ([]graph.NodeID, error) {
	if nbit < 0 || nbit > 8*len(buf) {
		return nil, fmt.Errorf("addr: %d bits claimed in a %d-byte route", nbit, len(buf))
	}
	r := bits.NewReader(buf, nbit)
	pathLen, err := r.TryGamma()
	if err != nil {
		return nil, fmt.Errorf("addr: bad hop count: %w", err)
	}
	if pathLen > uint64(g.N()) {
		return nil, fmt.Errorf("addr: bad path length %d", pathLen)
	}
	path := make([]graph.NodeID, 1, pathLen)
	path[0] = lm
	cur := lm
	for i := uint64(1); i < pathLen; i++ {
		w := bits.Width(g.Degree(cur))
		if r.Remaining() < w {
			return nil, fmt.Errorf("addr: truncated route (%d bits left, need %d)", r.Remaining(), w)
		}
		port := r.ReadBits(w)
		if int(port) >= g.Degree(cur) {
			return nil, fmt.Errorf("addr: port %d out of range at node %d (degree %d)", port, cur, g.Degree(cur))
		}
		cur = g.NeighborAt(cur, int(port)).To
		path = append(path, cur)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("addr: %d trailing bits after route", r.Remaining())
	}
	return path, nil
}

// Reverse returns the reversed node path v⇝l_v. The paper's protocol
// assumes routes are usable in both directions (§6 policy discussion);
// the simulator uses this for the "reverse route" shortcutting heuristics.
func (a Address) Reverse() []graph.NodeID {
	out := make([]graph.NodeID, len(a.Path))
	for i, v := range a.Path {
		out[len(out)-1-i] = v
	}
	return out
}

// SizeModel converts routing-table entries to bytes for the Fig. 7 style
// accounting: every stored entry carries a destination name and an address
// (landmark name + explicit route). NameBytes is 4 to model IPv4-sized
// names and 16 for IPv6-sized names.
type SizeModel struct {
	NameBytes int
}

// EntryBytes returns the size of a full name→address table entry.
func (m SizeModel) EntryBytes(a Address) float64 {
	return float64(2*m.NameBytes) + a.Bytes()
}

// PlainEntryBytes returns the size of a table entry that stores only a
// destination name and a next hop (vicinity, cluster and landmark routing
// entries): name + next-hop port (2 bytes).
func (m SizeModel) PlainEntryBytes() float64 {
	return float64(m.NameBytes) + 2
}
