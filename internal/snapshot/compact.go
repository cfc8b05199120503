// Compact storage regime: the shard store's route state bit-packed via
// internal/bits. The constant factor is the whole ballgame for paper-scale
// runs — the exact table prices a 192,244-node -full run at several
// gigabytes, and shrinking the encoding is what turns the Θ(√(n log n))
// bound into a runnable experiment.
//
// Wire format, vicinity window of node v (m entries sorted by member ID,
// byte-aligned per node so each window is a byte range of one shared blob).
// The member IDs are an Elias–Fano code: each ID in [0, n) splits into its
// low L bits and its bucket, the bits above them, where L = floor(log2(n/m))
// (0 when m = 0 or m >= n). L follows from n and the member count, which
// the store holds, so the window stores no parameter:
//
//	high:    the buckets in unary — member i is a one at bit i+bucket(i),
//	         and bucket b ends with a zero, for every bucket up to
//	         (n-1)>>L: m ones and ((n-1)>>L)+1 zeros (none at m = 0)
//	lows:    m fields of L bits, member i's low bits
//	parents: m window indices in Width(k+1) bits each — the position of the
//	         entry's parent within this window (parents are always members),
//	         with index m encoding graph.None (the owner)
//	dists:   the window's own distance column, lossless: on a unit-weight
//	         graph (graph.Unit) m BFS levels in Width(radius+1) bits
//	         each, otherwise m float64s in 64 bits each
//
// Every offset is relative to the window, so a window's bytes mean the
// same wherever the blob puts them, and every section starts at a bit the
// member count computes. Member i's ID is a select: the position of the
// i-th one, less i, is its bucket, above its low field. Its parent and
// distance are one fixed-width field each. A lookup (pointed.Find) selects
// the zero that ends the bucket before w's and compares the low fields of
// w's bucket, about one member: it decodes no column.
//
// The form is the store's, fixed by the graph it is built or folded over,
// so a decode is the exact store's window, column for column. A repair
// chain's overlaid window (store.go) is encoded in the same layout by the
// event that recomputed it, in the form of that event's graph, and keeps
// its form, member count and radius in its slot (encodedWindow).
//
// Landmark forest rows: one row per landmark, byte-aligned, with node v's
// parent stored as the port index of the parent within v's sorted adjacency
// list in Width(deg(v)+1) bits — value deg(v) encodes graph.None. Ports
// round-trip exactly, so compact tree reads are byte-identical to exact
// ones.
//
// Beside the blobs the store keeps each window's radius: the level field
// width, and what the recovery pipeline's per-candidate radius probes read,
// so the hot classification loop never decodes a window.
//
// A chain fold (repair.go) writes a fresh store over the current graph and
// reads the old one once. Every window, base or overlaid, copies as a raw
// byte range; only a window whose distance form is not the new store's is
// decoded and re-encoded, which a fold that changes the graph's form does
// to every window. Forest rows re-encode with a carry from the old
// store: a port indexes its node's neighbour list only, so a node whose
// list the fold's graph keeps keeps its port wherever the overlay's sparse
// row does not patch it. Only nodes next to a changed link, and the nodes
// an overlay patched, search their adjacency again (Graph.PortOf). The bits
// between them copy whole. On G(n,m) n=4096
// with a real pre-fold chain, on 2 cores of a 2.0 GHz Xeon, the forest half
// of a fold costs 7–10 ms against 17–23 ms re-encoding every field
// (BenchmarkChainFold forest-ms/op).
//
// Reads go through internal/bits in place: a base window is read as bits
// [8·vicOff[v], 8·vicOff[v+1]) of the whole blob, an overlaid one from the
// start of its slot's bytes, which run on to the end of its event's blob
// and a word of slack past it, and a forest field at its absolute bit in
// the forest, never through a re-slice, so the bytes that follow keep the
// codec on its 64-bit word path everywhere but in the last 8 bytes of the
// base blob and the forest. A whole-window decode (a fold that changes the
// distance form, CanonicalBytes and the hop-by-hop oracle make them) runs
// the kernels once per column: the low column (ReadRun), the buckets above
// it from the high array's ones (ReadUnaryRun), then the parent and level
// columns. A route reads in place (pointed): a membership probe, the path
// to a member (the probe, then one parent field and one select a hop), a
// member's distance (the probe and one field), and the member IDs in order
// (appendIDs: the two ID kernels the decode runs, nothing else). Repair
// reads a pre-event window in place too: its tests probe and read fields,
// and its change count reads the IDs through appendIDs and each member's
// parent and distance as one field. On router-like n=2048
// (k=151, L=3: a 407-bit high array and 453 bits of lows a window), on
// 2 cores of a 2.0 GHz Xeon, a pointed membership probe costs 108–120 ns,
// the path to a member (3.6 nodes on average) 335–415 ns and a forest
// parent field 21–26 ns, against 15–20 ns, 147–190 ns and 10–15 ns on
// the exact twin (BenchmarkCompactReads). Why Elias–Fano: its ID section
// takes 107.5 B a window there, 13% more than gamma deltas in blocks of 32
// under a fixed-width head (94.9 B), whose probe scans up to 31 codes
// (264–304 ns).
package snapshot

import (
	"math"
	mbits "math/bits"
	"slices"

	"disco/internal/bits"
	"disco/internal/graph"
	"disco/internal/parallel"
	"disco/internal/vicinity"
)

// vicinityShard bounds how many per-node encoded buffers exist at once
// during BuildCompact: windows are computed and encoded in parallel within
// a shard, then appended to the blob and released, so peak transient memory
// tracks the encoded size, not the exact table's 8 to 14 bytes an entry.
const vicinityShard = 8192

// compactStore is the compact regime's base store. pg is the graph whose
// sorted adjacency lists the forest ports index and whose weights decide
// the distance form: the graph it was built over, or on a folded chain
// that fold's graph.
type compactStore struct {
	n, k     int
	pg       *graph.Graph
	levels   bool // distances as BFS levels: pg.Unit()
	pWidth   int  // bits of one parent window index: Width(k+1)
	vicBlob  []byte
	vicOff   []int64
	vicLen   []int32   // per-node window member count; nil = every window has k
	radii    []float64 // per-node window radius
	forest   []byte
	degOff   []int64
	rowBytes int
}

// newCompactStore fixes a store's layout over g: the field widths and the
// distance form.
func newCompactStore(g *graph.Graph, k int) *compactStore {
	cs := newCompactLayout(g.N(), k, g.Unit())
	cs.pg = g
	return cs
}

// newCompactLayout fixes the window field widths of an n-node store of
// k-member windows in the given distance form.
func newCompactLayout(n, k int, levels bool) *compactStore {
	return &compactStore{n: n, k: k, levels: levels, pWidth: bits.Width(k + 1)}
}

// lowBits returns L, the low bits an m-member window keeps of each member
// ID: floor(log2(n/m)), or 0 when m = 0 or m >= n. It is the largest L
// with m·2^L <= n, found without a division.
func lowBits(n, m int) int {
	if m == 0 || m >= n {
		return 0
	}
	l := mbits.Len(uint(n)) - mbits.Len(uint(m))
	if m<<l > n {
		l--
	}
	return l
}

// highBits returns the length of an m-member window's high-bits array: a
// one per member and a zero ending each of the ((n-1)>>L)+1 buckets. An
// empty window has none.
func highBits(n, m, l int) int {
	if m == 0 {
		return 0
	}
	return m + (n-1)>>l + 1
}

func (cs *compactStore) windowLen(v graph.NodeID) int {
	if cs.vicLen != nil {
		return int(cs.vicLen[v])
	}
	return cs.k
}

// distWidth is the width of one distance field in a window of this radius,
// in the given distance form.
func distWidth(levels bool, radius float64) int {
	if levels {
		return bits.Width(int(radius) + 1)
	}
	return 64
}

// encScratch is one worker's private state for the compact vicinity build:
// its ball, the window it fills window after window, and its writer.
type encScratch struct {
	ball *vicinity.Ball
	win  vicinity.Window
	w    bits.Writer
}

// buildCompactVicinities runs the same per-node truncated Dijkstra sweep as
// the exact build, but encodes each window straight into a bit-packed
// buffer, shard by shard.
func (s *Snapshot) buildCompactVicinities(cs *compactStore) error {
	n, k := s.g.N(), s.k
	cs.vicOff = make([]int64, n+1)
	cs.radii = make([]float64, n)
	settled := make([]int32, n)
	var blob []byte
	bufs := make([][]byte, min(vicinityShard, n))
	for base := 0; base < n; base += vicinityShard {
		m := vicinityShard
		if base+m > n {
			m = n - base
		}
		parallel.RunScratch(m,
			func() *encScratch {
				return &encScratch{ball: vicinity.NewBall(s.g), win: vicinity.MakeWindows(s.g, 1, k)[0]}
			},
			func(sc *encScratch, i int) {
				sc.ball.Fill(&sc.win, graph.NodeID(base+i), k)
				settled[base+i] = int32(sc.win.Size())
				if sc.win.Size() != k {
					bufs[i] = nil
					return
				}
				cs.radii[base+i] = sc.win.Radius()
				sc.w.Reset()
				cs.encodeWindow(&sc.w, &sc.win)
				bufs[i] = append([]byte(nil), sc.w.Bytes()...)
			})
		for i := 0; i < m; i++ {
			cs.vicOff[base+i] = int64(len(blob))
			blob = append(blob, bufs[i]...)
			bufs[i] = nil
		}
	}
	cs.vicOff[n] = int64(len(blob))
	cs.vicBlob = blob
	for _, r := range cs.radii {
		s.maxRadius = max(s.maxRadius, r)
	}
	return firstShortfall(settled, k)
}

// encodeWindow appends one window in the wire format above: the window's
// own columns, the distances in the store's form — on a unit-weight graph
// every distance is a level, whichever column holds it. An empty window
// (k=0) encodes to zero bits.
func (cs *compactStore) encodeWindow(w *bits.Writer, win *vicinity.Window) {
	m := win.Size()
	l := lowBits(cs.n, m)
	// The high array a word at a time: member i's one is bit i+bucket(i).
	var word uint64
	done, high := 0, highBits(cs.n, m, l) // bits written; the array's length
	for i := 0; i < m; i++ {
		q := i + int(win.ID(i))>>l
		for ; q-done >= 64; done += 64 {
			w.WriteBits(word, 64)
			word = 0
		}
		word |= 1 << uint(63-(q-done))
	}
	for ; high-done >= 64; done += 64 {
		w.WriteBits(word, 64)
		word = 0
	}
	w.WriteBits(word>>uint(64-(high-done)), high-done)
	for i := 0; i < m; i++ {
		w.WriteBits(uint64(win.ID(i)), l)
	}
	for i := 0; i < m; i++ {
		p := win.Parent(i)
		if p < 0 {
			p = m // graph.None sentinel
		}
		w.WriteBits(uint64(p), cs.pWidth)
	}
	dw := distWidth(cs.levels, win.Radius())
	for i := 0; i < m; i++ {
		if cs.levels {
			w.WriteBits(uint64(win.Dist(i)), dw)
		} else {
			w.WriteBits(math.Float64bits(win.Dist(i)), dw)
		}
	}
}

// encodedWindowBytes returns the byte length encodeWindow produces for a
// window of m members and this radius, without writing a bit — the
// analytic size pass of the two-pass compact fold, so every shard's
// destination slice is known before any shard encodes. Every section's
// length follows from the member count and the radius.
func (cs *compactStore) encodedWindowBytes(m int, radius float64) int64 {
	l := lowBits(cs.n, m)
	nbits := highBits(cs.n, m, l) + m*(l+cs.pWidth+distWidth(cs.levels, radius))
	return int64((nbits + 7) / 8)
}

// window decodes the window into a fresh one: the member IDs (appendIDs),
// then the parent and distance columns (ReadRun), with the radius the
// window is read with. The decode is in the window's own distance form.
func (p *pointed) window() *vicinity.Window {
	m := p.size
	ids, parent := p.appendIDs(make([]graph.NodeID, 0, m)), make([]uint16, m)
	r := p.reader(p.parents)
	bits.ReadRun(r, parent, p.cs.pWidth)
	for i, q := range parent {
		if int(q) == m {
			parent[i] = math.MaxUint16 // the owner
		}
	}
	var level []uint16
	var dist []float64
	if dw := distWidth(p.levels, p.radius); p.levels {
		level = make([]uint16, m)
		bits.ReadRun(r, level, dw)
	} else {
		dist = make([]float64, m)
		for i := range dist {
			dist[i] = math.Float64frombits(r.ReadBits(dw))
		}
	}
	return vicinity.FromColumns(p.cs.n, ids, parent, level, dist, p.radius)
}

// pointed is one window read in place, a field at a time at the bits the
// layout computes: nothing is decoded but the words of the high-bits array
// a select walks. Its bytes are a range of the base blob or an overlay
// slot's own (encodedWindow); either way reads go through internal/bits
// against the whole array the range sits in (see the file comment for why
// not a re-slice). The member count, the radius and the distance form come
// with the window: kept beside the base blob, or in the slot.
// Snapshot.pointed makes one.
type pointed struct {
	cs      *compactStore // the layout: n and the parent field width
	blob    []byte
	radius  float64
	levels  bool // distances as BFS levels
	size    int
	l       int // low bits of a member ID: lowBits(n, size)
	at      int // the window's first bit in blob: its high-bits array
	lows    int // the first bit of its low-bits array
	parents int // the first bit of its parent column
}

// Size returns the window's member count.
func (p *pointed) Size() int { return p.size }

// Radius returns the window's radius.
func (p *pointed) Radius() float64 { return p.radius }

// low returns member i's low bits.
func (p *pointed) low(i int) int { return int(bits.At(p.blob, p.lows+i*p.l, p.l)) }

// end returns the bit that follows the window: its distance column's end.
func (p *pointed) end() int {
	return p.parents + p.size*(p.cs.pWidth+distWidth(p.levels, p.radius))
}

// bytes returns the window's byte range, the bytes a fold copies.
func (p *pointed) bytes() []byte { return p.blob[p.at>>3 : (p.end()+7)>>3] }

// reader returns a reader from bit `from` to the end of the window.
func (p *pointed) reader(from int) *bits.Reader {
	return bits.NewReaderAt(p.blob, from, p.end())
}

// Find returns w's index in the window, or -1 when w is no member. It
// reads only w's bucket b = w>>L: the zero ending bucket b-1 is where the
// bucket starts (bits.SelectZero), and the ones before it count the
// members below it. The bucket's ones are read a bit at a time, each
// member's low field compared until one reaches w's; a zero ends the
// bucket, so an empty bucket answers at once. Every bucket w can name ends
// inside the array, and an ID outside [0, n) names none.
func (p *pointed) Find(w graph.NodeID) int {
	if p.size == 0 || uint(w) >= uint(p.cs.n) {
		return -1
	}
	blob, b := p.blob, int(w)>>p.l
	at := p.at
	if b > 0 {
		at = bits.SelectZero(blob, p.at, p.lows, b-1) + 1
	}
	lo := int(w) & (1<<p.l - 1)
	for i := at - p.at - b; bits.At(blob, at, 1) == 1; i, at = i+1, at+1 {
		if f := p.low(i); f >= lo {
			if f == lo {
				return i
			}
			break
		}
	}
	return -1
}

// ID returns member i's node ID: its bucket, the zeros before its one
// (bits.SelectOne), above its low bits.
func (p *pointed) ID(i int) graph.NodeID {
	b := bits.SelectOne(p.blob, p.at, p.lows, i) - p.at - i
	return graph.NodeID(b<<p.l | p.low(i))
}

// appendIDs appends the window's member IDs, ascending, to dst: the low
// column (ReadRun), then each member's bucket above its low bits from the
// high-bits array's ones (ReadUnaryRun).
func (p *pointed) appendIDs(dst []graph.NodeID) []graph.NodeID {
	at := len(dst)
	dst = slices.Grow(dst, p.size)[:at+p.size]
	bits.ReadRun(p.reader(p.lows), dst[at:], p.l)
	bits.ReadUnaryRun(p.reader(p.at), dst[at:], p.l)
	return dst
}

// Parent returns the index of member i's parent, or -1 for the owner.
func (p *pointed) Parent(i int) int {
	q := int(bits.At(p.blob, p.parents+i*p.cs.pWidth, p.cs.pWidth))
	if q == p.size {
		return -1
	}
	return q
}

// AppendPath appends the window's tree path owner ⇝ member i to dst, as
// vicinity.Window.AppendPath does, reading each hop's parent and ID field
// in place: one walk up the tree, then the appended hops reversed.
func (p *pointed) AppendPath(dst []graph.NodeID, i int) []graph.NodeID {
	base := len(dst)
	for j := i; j >= 0; j = p.Parent(j) {
		dst = append(dst, p.ID(j))
	}
	slices.Reverse(dst[base:])
	return dst
}

// Dist returns member i's distance from the owner.
func (p *pointed) Dist(i int) float64 {
	at := p.parents + p.size*p.cs.pWidth
	if p.levels {
		dw := distWidth(true, p.radius)
		return float64(bits.At(p.blob, at+i*dw, dw))
	}
	return math.Float64frombits(bits.At(p.blob, at+i*64, 64))
}

// layoutForest fixes the forest's bit layout over pg and allocates it: node
// v's parent field sits at bit degOff[v] of a row and holds a port index
// into v's adjacency list, deg(v) standing for graph.None. Rows are
// byte-aligned so parallel row writers touch disjoint bytes.
func (cs *compactStore) layoutForest(rows int) {
	cs.degOff = make([]int64, cs.n+1)
	var pos int64
	for v := 0; v < cs.n; v++ {
		cs.degOff[v] = pos
		pos += int64(bits.Width(cs.pg.Degree(graph.NodeID(v)) + 1))
	}
	cs.degOff[cs.n] = pos
	cs.rowBytes = int((pos + 7) / 8)
	cs.forest = make([]byte, rows*cs.rowBytes)
}

// portCarry is what a fold carries into its row encodes: the store the
// rows were last encoded in, the nodes whose adjacency lists the new
// store's graph changed, and the overlay whose sparse rows patch the old
// store's rows (nil on a snapshot with none).
type portCarry struct {
	old     *compactStore
	changed []graph.NodeID // ascending
	ov      *overlay
}

// newPortCarry compares every node's neighbour list in old.pg and cs.pg.
// A port indexes that list only, so where it is unchanged a port naming the
// same parent keeps its value and its field width.
func (cs *compactStore) newPortCarry(old *compactStore, ov *overlay) *portCarry {
	carry := &portCarry{old: old, ov: ov}
	for v := range graph.NodeID(cs.n) {
		a, b := old.pg.Neighbors(v), cs.pg.Neighbors(v)
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = a[i].To == b[i].To
		}
		if !same {
			carry.changed = append(carry.changed, v)
		}
	}
	return carry
}

// encodeForestRow bit-packs forest row `row` through the caller's writer.
// A build passes the row's parents and no carry, and every field resolves
// its port (Graph.PortOf). A fold passes no parents but a carry, and reads
// the previous encoding of the row in one sequential pass beside the write.
// Only the nodes the carry names resolve a port: the changed nodes, and
// the nodes the row's sparse overlay patches, which take their patched
// parent. Between two of them every field keeps its width and its port, so
// the run's bits copy whole.
func (cs *compactStore) encodeForestRow(w *bits.Writer, row int, prow []graph.NodeID, carry *portCarry) {
	w.Reset()
	if carry == nil {
		for v, p := range prow {
			cs.writePort(w, graph.NodeID(v), p)
		}
	} else {
		old := carry.old
		var patched, parents []graph.NodeID
		if sr := carry.ov.row(row); sr != nil {
			patched, parents = sr.nodes, sr.parents
		}
		r := bits.NewReaderAt(old.forest, 8*row*old.rowBytes, 8*(row+1)*old.rowBytes)
		at := graph.NodeID(0) // the first field not yet written
		for ci, pi := 0, 0; ; {
			c := graph.NodeID(cs.n) // the next node to resolve
			if ci < len(carry.changed) {
				c = carry.changed[ci]
			}
			if pi < len(patched) && patched[pi] < c {
				c = patched[pi]
			}
			copyBits(w, r, int(cs.degOff[c]-cs.degOff[at]))
			if int(c) == cs.n {
				break
			}
			p := old.portParent(c, r.ReadBits(int(old.degOff[c+1]-old.degOff[c])))
			if ci < len(carry.changed) && carry.changed[ci] == c {
				ci++
			}
			if pi < len(patched) && patched[pi] == c {
				p = parents[pi]
				pi++
			}
			cs.writePort(w, c, p)
			at = c + 1
		}
	}
	copy(cs.forest[row*cs.rowBytes:(row+1)*cs.rowBytes], w.Bytes())
}

// writePort writes v's field for parent p: p's port in v's adjacency list,
// or deg(v) for graph.None.
func (cs *compactStore) writePort(w *bits.Writer, v, p graph.NodeID) {
	port := cs.pg.Degree(v)
	if p != graph.None {
		port = cs.pg.PortOf(v, p)
	}
	w.WriteBits(uint64(port), int(cs.degOff[v+1]-cs.degOff[v]))
}

// copyBits moves the next nbits bits of r to w, a word load at a time.
func copyBits(w *bits.Writer, r *bits.Reader, nbits int) {
	const chunk = 56 // within one word load at any bit offset
	for ; nbits > chunk; nbits -= chunk {
		w.WriteBits(r.ReadBits(chunk), chunk)
	}
	w.WriteBits(r.ReadBits(nbits), nbits)
}

// buildCompactForest writes one bit-packed port-index parent row per
// landmark. The trees come out of graph.ParentRows as flat parent rows, a
// batch per worker at a time, so the rows awaiting encoding never exceed
// one batch each.
func (s *Snapshot) buildCompactForest(cs *compactStore) error {
	n := s.g.N()
	cs.layoutForest(len(s.landmarks))
	settled := make([]int32, 0, len(s.landmarks))
	chunk := min(len(s.landmarks), parallel.Workers()*graph.BatchRoots)
	rows := make([][]graph.NodeID, chunk)
	for i := range rows {
		rows[i] = make([]graph.NodeID, n)
	}
	for base := 0; base < len(s.landmarks); base += chunk {
		m := min(chunk, len(s.landmarks)-base)
		settled = append(settled, graph.ParentRows(s.g, s.landmarks[base:base+m], rows[:m])...)
		parallel.RunScratch(m,
			func() *bits.Writer { return new(bits.Writer) },
			func(w *bits.Writer, i int) { cs.encodeForestRow(w, base+i, rows[i], nil) })
	}
	return forestShortfall(settled, s.landmarks, n)
}

// rowParent decodes one parent field of forest row `row`: the port of v's
// tree predecessor within v's adjacency list, or deg(v) for None. The
// ports index the adjacency of the graph the row was encoded over (pg);
// on a chained snapshot that graph can predate failures, but the resolved
// edge is nonetheless alive — a shared row's tree crosses no failed link.
func (cs *compactStore) rowParent(row int, v graph.NodeID) graph.NodeID {
	width := int(cs.degOff[v+1] - cs.degOff[v])
	return cs.portParent(v, bits.At(cs.forest, 8*row*cs.rowBytes+int(cs.degOff[v]), width))
}

// portParent resolves v's port field: the neighbour behind the port, or
// graph.None for the deg(v) sentinel.
func (cs *compactStore) portParent(v graph.NodeID, port uint64) graph.NodeID {
	es := cs.pg.Neighbors(v)
	if port == uint64(len(es)) {
		return graph.None
	}
	return es[port].To
}

// decodeRow materializes forest row `row` as a fresh flat parent array in
// one sequential pass over the bit stream — what table installs read,
// instead of n random At probes.
func (cs *compactStore) decodeRow(row int) []graph.NodeID {
	prow := make([]graph.NodeID, cs.n)
	r := bits.NewReaderAt(cs.forest, 8*row*cs.rowBytes, 8*(row+1)*cs.rowBytes)
	for v := range prow {
		prow[v] = cs.portParent(graph.NodeID(v), r.ReadBits(int(cs.degOff[v+1]-cs.degOff[v])))
	}
	return prow
}

func (cs *compactStore) storeBytes() int64 {
	return int64(len(cs.vicBlob)) +
		int64(len(cs.vicOff))*off64Bytes +
		int64(len(cs.vicLen))*int32Bytes +
		int64(len(cs.radii))*f64Bytes +
		int64(len(cs.forest)) +
		int64(len(cs.degOff))*off64Bytes
}

// foldCompactWindows writes the chain's logical windows into a fresh
// compactStore over the current graph, in two passes so shards write
// independently over the worker pool: pass 1 computes every window's
// encoded size from its member count and radius, pass 2 copies each
// window's bytes — a range of the old base blob, or an overlay slot's —
// into its disjoint slice of the new blob. Every window keeps its bytes
// while its distance form is the new store's (the field widths never
// change across folds); one in the other form, which a fold that changes
// the graph's form makes of every window, is decoded and re-encoded.
func (s *Snapshot) foldCompactWindows() *compactStore {
	n := s.g.N()
	cs := newCompactStore(s.g, s.k)
	cs.vicLen, cs.radii = make([]int32, n), make([]float64, n)
	vicOff := make([]int64, n+1)
	sizes := parallel.Map(n, func(v int) int64 {
		p := s.pointed(graph.NodeID(v))
		cs.vicLen[v], cs.radii[v] = int32(p.size), p.radius
		return cs.encodedWindowBytes(p.size, p.radius)
	})
	for v := 0; v < n; v++ {
		vicOff[v+1] = vicOff[v] + sizes[v]
	}
	cs.vicOff = vicOff
	cs.vicBlob = make([]byte, vicOff[n])
	parallel.RunScratch(n,
		func() *bits.Writer { return new(bits.Writer) },
		func(w *bits.Writer, v int) {
			dst := cs.vicBlob[vicOff[v]:vicOff[v+1]]
			p := s.pointed(graph.NodeID(v))
			if p.levels == cs.levels {
				copy(dst, p.bytes())
				return
			}
			w.Reset()
			cs.encodeWindow(w, p.window())
			copy(dst, w.Bytes())
		})
	uniform := true
	for _, ln := range cs.vicLen {
		if int(ln) != s.k {
			uniform = false
			break
		}
	}
	if uniform {
		cs.vicLen = nil
	}
	return cs
}

// foldCompactForest encodes the chain's forest rows into cs, laid out over
// its graph. Rows encode with a carry from the old store: a node whose
// neighbour list cs's graph keeps, and whose row no overlay patches there,
// keeps its port, so only the nodes next to a changed link and the patched
// nodes resolve a port again.
func (s *Snapshot) foldCompactForest(cs *compactStore) {
	cs.layoutForest(len(s.landmarks))
	carry := cs.newPortCarry(s.cs, s.ov)
	parallel.RunScratch(len(s.landmarks),
		func() *bits.Writer { return new(bits.Writer) },
		func(w *bits.Writer, row int) { cs.encodeForestRow(w, row, nil, carry) })
}
