// Compact storage regime: the shard store's route state bit-packed via
// internal/bits. The constant factor is the whole ballgame for paper-scale
// runs — the exact table prices a 192,244-node -full run at several
// gigabytes, and shrinking the encoding is what turns the Θ(√(n log n))
// bound into a runnable experiment.
//
// Wire format, vicinity window of node v (m entries sorted by member ID,
// byte-aligned per node so each window is a byte range of one shared blob).
// The member IDs are cut into blocks of blockLen (S = 32) members, and a
// fixed-width head points into them:
//
//	head:    each block's first member ID in Width(n) bits, then each
//	         block's end in offWidth bits: the bit where its gamma run
//	         stops, counted from the end of the head (the last block's end
//	         is where the parent section starts)
//	ids:     per block, its members after the first as Elias-gamma deltas
//	         (member IDs are strictly increasing, so every delta is >= 1)
//	parents: m window indices in Width(k+1) bits each — the position of the
//	         entry's parent within this window (parents are always members),
//	         with index m encoding graph.None (the owner)
//	dists:   the window's own distance column, lossless: on a unit-weight
//	         graph (vicinity.Levels) m BFS levels in Width(radius+1) bits
//	         each, otherwise m float64s in 64 bits each
//
// Every offset is relative to the window, so a window's bytes mean the
// same wherever the blob puts them, and every field but a gamma delta
// sits at a bit the head computes: member i is block i/S's head plus at
// most S-1 deltas, and its parent and distance are one fixed-width field
// each. A lookup (pointed.Find) binary-searches the block heads and scans
// one block; it decodes no column and touches no other block.
//
// The form is the store's, fixed by the graph it is built or folded over,
// so a decode is the exact store's window, column for column.
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
// reads the old one once. Untouched windows copy as raw byte ranges and
// overlaid ones re-encode. Forest rows re-encode with a carry from the old
// store: a port indexes its node's neighbour list only, so a node whose
// list the fold's graph keeps keeps its port wherever the overlay's sparse
// row does not patch it. Only nodes next to a changed link, and the nodes
// an overlay patched, search their adjacency again (Graph.PortOf). The bits
// between them copy whole. On G(n,m) n=4096
// with a real pre-fold chain, on 2 cores of a 2.0 GHz Xeon, the forest half
// of a fold costs 7–10 ms against 17–23 ms re-encoding every field
// (BenchmarkChainFold forest-ms/op).
//
// Reads go through internal/bits in place: a window is read as bits
// [8·vicOff[v], 8·vicOff[v+1]) of the whole blob and a forest field at its
// absolute bit in the forest, never through a re-slice, so the bytes that
// follow keep the codec on its 64-bit word path everywhere but in the last
// 8 bytes of each array. A whole-window decode runs the kernels once per
// column: the member IDs block by block (ReadGammaRun from each head),
// then the parent and level columns (ReadRun). Everything else reads in
// place through the head (pointed): a membership probe, and the member,
// parent and distance fields repair's window tests compare. A Reader
// (reader.go) decodes a window only for a lookup that finds its target in
// it, or for a whole-window read.
// On router-like n=2048 (k=151, 5 blocks a window), on 2 cores of a
// 2.0 GHz Xeon, a fresh window decode costs 3.5–3.9 µs, a pointed
// membership probe 250–280 ns, a Reader's lookup of an owner it does not hold 250–265 ns on a miss and
// 2.3–2.5 µs on a hit (which decodes the window into its slot), a lookup
// in a slot it holds 7–9 ns (miss) to 19–25 ns (hit) and a parent field
// 19–23 ns, against 5–8 ns, 16 ns, 12–14 ns, 72–91 ns, 11–12 ns, 27–30 ns
// and 9–12 ns on the exact twin (BenchmarkCompactReads). Blocks of 16
// members probe in 200–210 ns and cost 2% more state (552 → 563 B a node
// on churn-compact's map); in 3 runs on seed 2 they moved churn-compact's
// op_p50_us by 2–10%, inside its run-to-run spread, so S is 32.
package snapshot

import (
	"math"

	"disco/internal/bits"
	"disco/internal/graph"
	"disco/internal/parallel"
	"disco/internal/vicinity"
)

// vicinityShard bounds how many per-node encoded buffers exist at once
// during BuildCompact: windows are computed and encoded in parallel within
// a shard, then appended to the blob and released, so peak transient memory
// tracks the encoded size, not the 16-byte-per-entry exact table.
const vicinityShard = 8192

// compactStore is the compact regime's shard store. pg is the graph whose
// sorted adjacency lists the forest ports index and whose weights decide
// the distance form: the graph it was built over, or on a folded chain
// that fold's graph.
type compactStore struct {
	n, k     int
	pg       *graph.Graph
	levels   bool // distances as BFS levels: vicinity.Levels(pg, k)
	idWidth  int  // bits of a block's first (absolute) member ID: Width(n)
	offWidth int  // bits of a block's end in the head
	pWidth   int  // bits of one parent window index: Width(k+1)
	vicBlob  []byte
	vicOff   []int64
	vicLen   []int32   // per-node window member count; nil = every window has k
	radii    []float64 // per-node window radius
	forest   []byte
	degOff   []int64
	rowBytes int
}

// blockLen is S, the members one block of a window's ID stream holds: a
// lookup scans at most S-1 gamma deltas past the head it lands on.
const blockLen = 32

// blocks returns how many blocks the ID stream of an m-member window has.
func blocks(m int) int { return (m + blockLen - 1) / blockLen }

// newCompactStore fixes a store's layout over g: the field widths and the
// distance form.
func newCompactStore(g *graph.Graph, k int) *compactStore {
	cs := newCompactLayout(g.N(), k, vicinity.Levels(g, k))
	cs.pg = g
	return cs
}

// newCompactLayout fixes the window field widths of an n-node store of
// k-member windows in the given distance form. A block end counts the bits
// of at most k-blocks(k) gamma deltas, each of a delta below n and so at
// most 2·Width(n)-1 bits long.
func newCompactLayout(n, k int, levels bool) *compactStore {
	idWidth := bits.Width(n)
	maxStream := max(k-blocks(k), 0) * max(2*idWidth-1, 1)
	return &compactStore{n: n, k: k, levels: levels, idWidth: idWidth, offWidth: bits.Width(maxStream + 1), pWidth: bits.Width(k + 1)}
}

func (cs *compactStore) windowLen(v graph.NodeID) int {
	if cs.vicLen != nil {
		return int(cs.vicLen[v])
	}
	return cs.k
}

func (cs *compactStore) windowMeta(v graph.NodeID) (int, float64) {
	return cs.windowLen(v), cs.radii[v]
}

// distWidth is the width of one distance field in a window of this radius.
func (cs *compactStore) distWidth(radius float64) int {
	if cs.levels {
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
	for i := 0; i < m; i += blockLen {
		w.WriteBits(uint64(win.ID(i)), cs.idWidth)
	}
	end := 0
	for i := 0; i < m; i++ {
		end += deltaBits(win, i)
		if i+1 == m || (i+1)%blockLen == 0 {
			w.WriteBits(uint64(end), cs.offWidth)
		}
	}
	for i := 0; i < m; i++ {
		if i%blockLen != 0 {
			w.WriteGamma(uint64(win.ID(i) - win.ID(i-1)))
		}
	}
	for i := 0; i < m; i++ {
		p := win.Parent(i)
		if p < 0 {
			p = m // graph.None sentinel
		}
		w.WriteBits(uint64(p), cs.pWidth)
	}
	dw := cs.distWidth(win.Radius())
	for i := 0; i < m; i++ {
		if cs.levels {
			w.WriteBits(uint64(win.Dist(i)), dw)
		} else {
			w.WriteBits(math.Float64bits(win.Dist(i)), dw)
		}
	}
}

// encodedWindowBytes returns the byte length encodeWindow would produce
// for win without writing a bit — the analytic size pass of the two-pass
// compact fold, so every shard's destination slice is known before any
// shard encodes.
func (cs *compactStore) encodedWindowBytes(win *vicinity.Window) int64 {
	m := win.Size()
	nbits := blocks(m)*(cs.idWidth+cs.offWidth) + m*(cs.pWidth+cs.distWidth(win.Radius()))
	for i := 0; i < m; i++ {
		nbits += deltaBits(win, i)
	}
	return int64((nbits + 7) / 8)
}

// deltaBits returns the bits member i takes in the ID stream: its gamma
// delta, or none for a block's first member, which the head holds.
func deltaBits(win *vicinity.Window, i int) int {
	if i%blockLen == 0 {
		return 0
	}
	return bits.GammaLen(uint64(win.ID(i) - win.ID(i-1)))
}

// window decodes node v's vicinity window from the shared blob into sc, a
// scratch in the store's form (newScratch), or into a fresh window when sc
// is nil: the member IDs block by block (ReadGammaRun from each block's
// head), then the parent and distance columns (ReadRun). The window holds
// windowLen(v) members: k on from-scratch builds, possibly fewer on a
// folded repair chain whose failures disconnected v's region.
func (cs *compactStore) window(v graph.NodeID, sc *vicinity.Scratch) *vicinity.Window {
	if sc == nil {
		sc = cs.newScratch()
	}
	p := cs.pointed(v)
	ids := sc.Refill(p.size)
	r := p.reader(p.stream)
	for b := range blocks(p.size) {
		i := b * blockLen
		ids[i] = p.head(b)
		bits.ReadGammaRun(r, ids[i+1:min(i+blockLen, p.size)], ids[i])
	}
	sc.Seal()
	parent, level, dist := sc.Columns()
	bits.ReadRun(r, parent, cs.pWidth)
	for i, q := range parent {
		if int(q) == len(parent) {
			parent[i] = -1 // the owner
		}
	}
	if dw := cs.distWidth(cs.radii[v]); cs.levels {
		bits.ReadRun(r, level, dw)
	} else {
		for i := range dist {
			dist[i] = math.Float64frombits(r.ReadBits(dw))
		}
	}
	sc.Finish()
	return sc.Window()
}

// newScratch returns an empty decode target in the store's form.
func (cs *compactStore) newScratch() *vicinity.Scratch { return vicinity.NewScratch(cs.n, cs.levels) }

// windowIndex finds w in V(v) through the block head, decoding no column
// (pointed.Find): the one membership probe of the store, behind
// Snapshot.VicinityContains and VicinityFind, a Reader's lookup of an
// owner it does not hold, and repair's window tests.
func (cs *compactStore) windowIndex(v, w graph.NodeID) int { return cs.pointed(v).Find(w) }

// pointed is V(v) read in place, a field at a time at the bits the head
// points to: nothing is decoded but the gamma deltas of the one block a
// member read lands in. Reads go through internal/bits against the whole
// blob (see the file comment for why not a re-slice).
type pointed struct {
	cs     *compactStore
	v      graph.NodeID
	size   int
	at     int // the window's first bit in the blob
	stream int // the first bit of its ID stream, past the head
}

// pointed returns V(v) to read in place.
func (cs *compactStore) pointed(v graph.NodeID) pointed {
	m, at := cs.windowLen(v), 8*int(cs.vicOff[v])
	return pointed{cs: cs, v: v, size: m, at: at, stream: at + blocks(m)*(cs.idWidth+cs.offWidth)}
}

// Size returns the window's member count.
func (p pointed) Size() int { return p.size }

// Radius returns the window's radius, kept beside the blob.
func (p pointed) Radius() float64 { return p.cs.radii[p.v] }

// head returns the first member ID of block b.
func (p pointed) head(b int) graph.NodeID {
	return graph.NodeID(bits.At(p.cs.vicBlob, p.at+b*p.cs.idWidth, p.cs.idWidth))
}

// blockStart returns the bit where block b's gamma run starts: the stream
// start, or where block b-1's run ends.
func (p pointed) blockStart(b int) int {
	if b == 0 {
		return p.stream
	}
	ends := p.stream - blocks(p.size)*p.cs.offWidth
	return p.stream + int(bits.At(p.cs.vicBlob, ends+(b-1)*p.cs.offWidth, p.cs.offWidth))
}

// reader returns a reader from bit `from` to the end of the window.
func (p pointed) reader(from int) *bits.Reader {
	return bits.NewReaderAt(p.cs.vicBlob, from, 8*int(p.cs.vicOff[p.v+1]))
}

// Find returns w's index in the window, or -1 when w is no member: a
// binary search of the block heads for the last block that starts at or
// below w, then a scan of its deltas that stops at the first ID >= w.
func (p pointed) Find(w graph.NodeID) int {
	lo, hi := 0, blocks(p.size)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.head(mid) <= w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return -1 // below the first member, or an empty window
	}
	i, id := (lo-1)*blockLen, p.head(lo-1)
	r, last := p.reader(p.blockStart(lo-1)), min(i+blockLen, p.size)-1
	for ; id < w && i < last; i++ {
		id += graph.NodeID(r.ReadGamma())
	}
	if id != w {
		return -1
	}
	return i
}

// ID returns member i's node ID: its block's head plus the deltas before
// it in the block.
func (p pointed) ID(i int) graph.NodeID {
	b := i / blockLen
	id, r := p.head(b), p.reader(p.blockStart(b))
	for range i % blockLen {
		id += graph.NodeID(r.ReadGamma())
	}
	return id
}

// Parent returns the index of member i's parent, or -1 for the owner.
func (p pointed) Parent(i int) int {
	q := int(bits.At(p.cs.vicBlob, p.blockStart(blocks(p.size))+i*p.cs.pWidth, p.cs.pWidth))
	if q == p.size {
		return -1
	}
	return q
}

// Dist returns member i's distance from the owner.
func (p pointed) Dist(i int) float64 {
	at := p.blockStart(blocks(p.size)) + p.size*p.cs.pWidth
	if p.cs.levels {
		dw := p.cs.distWidth(p.Radius())
		return float64(bits.At(p.cs.vicBlob, at+i*dw, dw))
	}
	return math.Float64frombits(bits.At(p.cs.vicBlob, at+i*64, 64))
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

// decodeRow materializes forest row `row` as a flat parent array in one
// sequential pass over the bit stream — what table installs, folds and the
// repair's change accounting read, instead of n random At probes — into
// prow, or into a fresh row when prow is nil.
func (cs *compactStore) decodeRow(row int, prow []graph.NodeID) []graph.NodeID {
	if prow == nil {
		prow = make([]graph.NodeID, cs.n)
	}
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

// foldCompactWindows re-encodes the chain's logical windows in the compact
// wire format into a fresh compactStore over the current graph, in two
// passes so shards encode independently over the worker pool: pass 1
// computes every window's encoded size — analytically for overlaid
// windows, and by carrying the old byte range for untouched ones, which
// re-encode byte-identically while the distance form holds (the widths
// never change across folds) — pass 2 writes each window into its disjoint
// blob slice, raw-copying the untouched ranges. When the graph changed the
// form, every window re-encodes.
func (s *Snapshot) foldCompactWindows() *compactStore {
	old := s.store.(*compactStore)
	n := s.g.N()
	cs := newCompactStore(s.g, s.k)
	cs.vicLen, cs.radii = make([]int32, n), make([]float64, n)
	// reencode returns V(v) when the fold must encode it, nil when it copies
	// the old bytes.
	reencode := func(v int) *vicinity.Window {
		if win := s.ov.window(graph.NodeID(v)); win != nil || cs.levels == old.levels {
			return win
		}
		return old.window(graph.NodeID(v), nil)
	}
	vicOff := make([]int64, n+1)
	sizes := parallel.Map(n, func(v int) int64 {
		if win := reencode(v); win != nil {
			cs.vicLen[v] = int32(win.Size())
			cs.radii[v] = win.Radius()
			return cs.encodedWindowBytes(win)
		}
		cs.vicLen[v] = int32(old.windowLen(graph.NodeID(v)))
		cs.radii[v] = old.radii[v]
		return old.vicOff[v+1] - old.vicOff[v]
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
			if win := reencode(v); win != nil {
				w.Reset()
				cs.encodeWindow(w, win)
				copy(dst, w.Bytes())
				return
			}
			copy(dst, old.vicBlob[old.vicOff[v]:old.vicOff[v+1]])
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
	carry := cs.newPortCarry(s.store.(*compactStore), s.ov)
	parallel.RunScratch(len(s.landmarks),
		func() *bits.Writer { return new(bits.Writer) },
		func(w *bits.Writer, row int) { cs.encodeForestRow(w, row, nil, carry) })
}
