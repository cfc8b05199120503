// Compact storage regime: the shard store's route state bit-packed via
// internal/bits. The constant factor is the whole ballgame for paper-scale
// runs — the exact table prices a 192,244-node -full run at several
// gigabytes, and shrinking the encoding is what turns the Θ(√(n log n))
// bound into a runnable experiment.
//
// Wire format, vicinity window of node v (k entries sorted by member ID,
// byte-aligned per node so each window is a byte range of one shared blob):
//
//	ids:     first member ID in Width(n) bits, then k-1 Elias-gamma deltas
//	         (member IDs are strictly increasing, so every delta is >= 1)
//	parents: k window indices in Width(k+1) bits each — the position of the
//	         entry's parent within this window (parents are always members),
//	         with index k encoding graph.None (the owner)
//	dists:   the window's own distance column, lossless: on a unit-weight
//	         graph (vicinity.Levels) k BFS levels in Width(radius+1) bits
//	         each, otherwise k float64s in 64 bits each
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
// Reads go through internal/bits in place: a window is read as bits
// [8·vicOff[v], 8·vicOff[v+1]) of the whole blob and a forest field at its
// absolute bit in the forest, never through a re-slice, so the bytes that
// follow keep the codec on its 64-bit word path everywhere but in the last
// 8 bytes of each array. A window decodes in two passes through the run
// kernels: decodeIDs takes the member IDs (ReadGammaRun) and seals the
// membership bitset, decodeColumns the parent and level columns
// (ReadRun). A fresh decode runs both; a Reader's cache slot (reader.go)
// runs the second only for a window a lookup finds its target in.
// On router-like n=2048 (k=151), on a 2.0 GHz Xeon, a fresh window decode
// costs 3.3 µs, an in-place membership probe 1.1–1.2 µs, a Reader's slot
// fill 1.2 µs, a lookup in a slot it holds 12 ns (miss) to 27 ns (hit)
// and a parent field 23–26 ns, against 5–7 ns, 14–17 ns, 18 ns, 11–25 ns
// and 11–12 ns on the exact twin (BenchmarkCompactReads).
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
	idWidth  int  // bits of the first (absolute) member ID: Width(n)
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
	n := g.N()
	return &compactStore{n: n, k: k, pg: g, levels: vicinity.Levels(g, k), idWidth: bits.Width(n), pWidth: bits.Width(k + 1)}
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
	if m == 0 {
		return
	}
	w.WriteBits(uint64(win.ID(0)), cs.idWidth)
	for i := 1; i < m; i++ {
		w.WriteGamma(uint64(win.ID(i) - win.ID(i-1)))
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
	if m == 0 {
		return 0
	}
	nbits := cs.idWidth + m*(cs.pWidth+cs.distWidth(win.Radius()))
	for i := 1; i < m; i++ {
		nbits += bits.GammaLen(uint64(win.ID(i) - win.ID(i-1)))
	}
	return int64((nbits + 7) / 8)
}

// window decodes node v's vicinity window from the shared blob into a
// fresh one in the store's form: the decode a Reader's cache slot runs,
// into a scratch of its own. The window holds windowLen(v) members: k on
// from-scratch builds, possibly fewer on a folded repair chain whose
// failures disconnected v's region.
func (cs *compactStore) window(v graph.NodeID) *vicinity.Window {
	sc := vicinity.NewScratch(cs.n, cs.levels)
	r := cs.decodeIDs(sc, v)
	cs.decodeColumns(sc, &r, v)
	return sc.Window()
}

// decodeIDs decodes V(v)'s member-ID column into sc and seals its
// membership — enough for Find and Contains — and returns the reader where
// the parent section starts, for decodeColumns.
func (cs *compactStore) decodeIDs(sc *vicinity.Scratch, v graph.NodeID) bits.Reader {
	ids := sc.Refill(cs.windowLen(v))
	r := cs.windowReader(v)
	if len(ids) > 0 {
		ids[0] = graph.NodeID(r.ReadBits(cs.idWidth))
		bits.ReadGammaRun(r, ids[1:], ids[0])
	}
	sc.Seal()
	return *r
}

// decodeColumns decodes V(v)'s parent and distance columns from r, where
// decodeIDs left it, and finishes sc's window.
func (cs *compactStore) decodeColumns(sc *vicinity.Scratch, r *bits.Reader, v graph.NodeID) {
	parent, level, dist := sc.Columns()
	bits.ReadRun(r, parent, cs.pWidth)
	for i, p := range parent {
		if int(p) == len(parent) {
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
}

// windowReader reads node v's window in place, as its bit range of the
// whole blob (see the file comment for why not a re-slice).
func (cs *compactStore) windowReader(v graph.NodeID) *bits.Reader {
	return bits.NewReaderAt(cs.vicBlob, 8*int(cs.vicOff[v]), 8*int(cs.vicOff[v+1]))
}

// windowIndex finds w in V(v) straight off the encoded ID stream: member
// IDs are ascending, so the scan stops at the first ID >= w and never
// touches the parent/distance sections or materializes the window. This
// keeps the per-hop membership probes of the forwarding loops cheap in the
// compact regime.
func (cs *compactStore) windowIndex(v, w graph.NodeID) int {
	ln := cs.windowLen(v)
	if ln == 0 {
		return -1
	}
	r := cs.windowReader(v)
	id, i := graph.NodeID(r.ReadBits(cs.idWidth)), 0
	for ; id < w && i+1 < ln; i++ {
		id += graph.NodeID(r.ReadGamma())
	}
	if id != w {
		return -1
	}
	return i
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

// encodeForestRow bit-packs parent row prow into forest row `row`, through
// the caller's writer.
func (cs *compactStore) encodeForestRow(w *bits.Writer, row int, prow []graph.NodeID) {
	w.Reset()
	for v, p := range prow {
		port := cs.pg.Degree(graph.NodeID(v)) // graph.None sentinel
		if p != graph.None {
			port = cs.pg.PortOf(graph.NodeID(v), p)
		}
		w.WriteBits(uint64(port), int(cs.degOff[v+1]-cs.degOff[v]))
	}
	copy(cs.forest[row*cs.rowBytes:(row+1)*cs.rowBytes], w.Bytes())
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
			func(w *bits.Writer, i int) { cs.encodeForestRow(w, base+i, rows[i]) })
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
	port := bits.At(cs.forest, 8*row*cs.rowBytes+int(cs.degOff[v]), width)
	if port == uint64(cs.pg.Degree(v)) {
		return graph.None
	}
	return cs.pg.NeighborAt(v, int(port)).To
}

// decodeRow materializes forest row `row` as a flat parent array in one
// sequential pass over the bit stream — what table installs and folds
// read, instead of n random At probes.
func (cs *compactStore) decodeRow(row int) []graph.NodeID {
	prow := make([]graph.NodeID, cs.n)
	r := bits.NewReaderAt(cs.forest, 8*row*cs.rowBytes, 8*(row+1)*cs.rowBytes)
	for v := 0; v < cs.n; v++ {
		port := r.ReadBits(int(cs.degOff[v+1] - cs.degOff[v]))
		if port == uint64(cs.pg.Degree(graph.NodeID(v))) {
			prow[v] = graph.None
		} else {
			prow[v] = cs.pg.NeighborAt(graph.NodeID(v), int(port)).To
		}
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

// foldCompactInto re-encodes the chain's logical state in the compact wire
// format as a fresh compactStore over the current graph, in two passes so
// shards encode independently over the worker pool: pass 1 computes every
// window's encoded size — analytically for overlaid windows, and by
// carrying the old byte range for untouched ones, which re-encode
// byte-identically while the distance form holds (the widths never change
// across folds) — pass 2 writes each window into its disjoint blob slice,
// raw-copying the untouched ranges. When the graph changed the form, every
// window re-encodes. Forest rows always re-encode: their port indices
// rebuild against the current graph.
func (s *Snapshot) foldCompactInto(f *Snapshot) {
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
		return old.window(graph.NodeID(v))
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

	cs.layoutForest(len(s.landmarks))
	parallel.RunScratch(len(s.landmarks),
		func() *bits.Writer { return new(bits.Writer) },
		func(w *bits.Writer, row int) { cs.encodeForestRow(w, row, s.forestRow(row)) })

	f.store = cs
}
