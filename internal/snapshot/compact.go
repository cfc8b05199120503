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
//	dists:   k IEEE-754 float32 values, 32 bits each (quantized from the
//	         exact float64; lossless whenever distances are small integers,
//	         i.e. on every unit-weight topology)
//
// Landmark forest rows: one row per landmark, byte-aligned, with node v's
// parent stored as the port index of the parent within v's sorted adjacency
// list in Width(deg(v)+1) bits — value deg(v) encodes graph.None. Ports
// round-trip exactly, so compact tree reads are byte-identical to exact
// ones.
//
// Beside the blobs the store keeps one float32 per window: its quantized
// radius, exactly the Radius() a decode would report. The recovery
// pipeline's per-candidate radius probes read it directly, so the hot
// classification loop never decodes a window.
//
// Reads go through internal/bits in place: a window is read as bits
// [8·vicOff[v], 8·vicOff[v+1]) of the whole blob and a forest field at its
// absolute bit in the forest, never through a re-slice, so the bytes that
// follow keep the codec on its 64-bit word path everywhere but in the last
// 8 bytes of each array.
// On router-like n=2048 (k=151), on a 2.0 GHz Xeon, a window decode costs
// 4–5 µs, a membership probe 1.1 µs and a parent field 20–40 ns, against
// about 5 ns, 80–130 ns and 13–23 ns on the exact twin
// (BenchmarkCompactReads).
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
// sorted adjacency lists the forest ports index — the graph the rows were
// encoded over, which on a folded chain is that fold's graph.
type compactStore struct {
	n, k     int
	pg       *graph.Graph
	idWidth  int // bits of the first (absolute) member ID: Width(n)
	pWidth   int // bits of one parent window index: Width(k+1)
	vicBlob  []byte
	vicOff   []int64
	vicLen   []int32   // per-node window member count; nil = every window has k
	radii    []float32 // per-node quantized window radius
	forest   []byte
	degOff   []int64
	rowBytes int
}

func (cs *compactStore) windowLen(v graph.NodeID) int {
	if cs.vicLen != nil {
		return int(cs.vicLen[v])
	}
	return cs.k
}

func (cs *compactStore) windowRadius(v graph.NodeID) float64 { return float64(cs.radii[v]) }

func (cs *compactStore) windowSet(v graph.NodeID) *vicinity.Set {
	set := vicinity.MakeSet(v, cs.decodeWindow(v))
	return &set
}

// encScratch is one worker's private state for the compact encode sweeps.
type encScratch struct {
	sp  *graph.SSSP
	win []vicinity.Entry
	ix  vicinity.Index // encodeWindow's member-position scratch
	w   bits.Writer
}

// buildCompactVicinities runs the same per-node truncated Dijkstra sweep as
// the exact build, but encodes each window straight into a bit-packed
// buffer, shard by shard.
func (s *Snapshot) buildCompactVicinities(cs *compactStore) error {
	n, k := s.g.N(), s.k
	cs.idWidth = bits.Width(n)
	cs.pWidth = bits.Width(k + 1)
	cs.vicOff = make([]int64, n+1)
	cs.radii = make([]float32, n)
	settled := make([]int32, n)
	bounds := make([]float64, n)
	var blob []byte
	bufs := make([][]byte, min(vicinityShard, n))
	for base := 0; base < n; base += vicinityShard {
		m := vicinityShard
		if base+m > n {
			m = n - base
		}
		parallel.RunScratch(m,
			func() *encScratch {
				return &encScratch{sp: graph.NewSSSP(s.g), win: make([]vicinity.Entry, k), ix: make(vicinity.Index, n)}
			},
			func(sc *encScratch, i int) {
				src := graph.NodeID(base + i)
				sc.sp.RunK(src, k)
				order := sc.sp.Order()
				settled[base+i] = int32(len(order))
				if len(order) != k {
					bufs[i] = nil
					return
				}
				vicinity.Fill(sc.win, sc.sp)
				bounds[base+i] = windowBound(sc.win)
				cs.radii[base+i] = quantizedRadius(sc.win)
				sc.w.Reset()
				encodeWindow(&sc.w, cs.idWidth, cs.pWidth, sc.win, sc.ix)
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
	for _, r := range bounds {
		if r > s.maxRadius {
			s.maxRadius = r
		}
	}
	return firstShortfall(settled, k)
}

// windowBound returns an upper bound on the window's radius that covers
// both the raw float64 distances and their float32-quantized decode (the
// two can land on either side of each other), so maxRadius stays a valid
// candidate-search bound in the compact regime.
func windowBound(win []vicinity.Entry) float64 {
	b := 0.0
	for _, e := range win {
		if e.Dist > b {
			b = e.Dist
		}
		if q := float64(float32(e.Dist)); q > b {
			b = q
		}
	}
	return b
}

// quantizedRadius returns the radius a decode of this window will report:
// the maximum of the float32-quantized distances. Stored per window so
// radius probes skip the decode.
func quantizedRadius(win []vicinity.Entry) float32 {
	var r float32
	for _, e := range win {
		if q := float32(e.Dist); q > r {
			r = q
		}
	}
	return r
}

// encodeWindow appends one window in the wire format above. The window must
// be sorted by member ID; every parent must be a window member (guaranteed
// by truncated Dijkstra: a parent settles before its child; ix.Parent
// panics otherwise). ix is the worker's member-position scratch. An empty
// window (k=0) encodes to zero bits.
func encodeWindow(w *bits.Writer, idWidth, pWidth int, win []vicinity.Entry, ix vicinity.Index) {
	if len(win) == 0 {
		return
	}
	w.WriteBits(uint64(win[0].Node), idWidth)
	for i := 1; i < len(win); i++ {
		w.WriteGamma(uint64(win[i].Node - win[i-1].Node))
	}
	ix.Bind(win)
	for i := range win {
		idx := ix.Parent(win, i)
		if idx < 0 {
			idx = int32(len(win)) // graph.None sentinel
		}
		w.WriteBits(uint64(idx), pWidth)
	}
	for _, e := range win {
		w.WriteBits(uint64(math.Float32bits(float32(e.Dist))), 32)
	}
}

// encodedWindowBytes returns the byte length encodeWindow would produce
// for win without writing a bit — the analytic size pass of the two-pass
// compact fold, so every shard's destination slice is known before any
// shard encodes.
func encodedWindowBytes(idWidth, pWidth int, win []vicinity.Entry) int64 {
	if len(win) == 0 {
		return 0
	}
	nbits := idWidth + len(win)*(pWidth+32)
	for i := 1; i < len(win); i++ {
		nbits += bits.GammaLen(uint64(win[i].Node - win[i-1].Node))
	}
	return int64((nbits + 7) / 8)
}

// decodeWindow materializes node v's vicinity window from the shared blob.
// The window holds windowLen(v) entries: k on from-scratch builds, possibly
// fewer on a folded repair chain whose failures disconnected v's region.
func (cs *compactStore) decodeWindow(v graph.NodeID) []vicinity.Entry {
	ln := cs.windowLen(v)
	if ln == 0 {
		return nil
	}
	r := cs.windowReader(v)
	entries := make([]vicinity.Entry, ln)
	id := graph.NodeID(r.ReadBits(cs.idWidth))
	entries[0].Node = id
	for i := 1; i < ln; i++ {
		id += graph.NodeID(r.ReadGamma())
		entries[i].Node = id
	}
	for i := 0; i < ln; i++ {
		idx := int(r.ReadBits(cs.pWidth))
		if idx == ln {
			entries[i].Parent = graph.None
		} else {
			entries[i].Parent = entries[idx].Node
		}
	}
	for i := 0; i < ln; i++ {
		entries[i].Dist = float64(math.Float32frombits(uint32(r.ReadBits(32))))
	}
	return entries
}

// windowReader reads node v's window in place, as its bit range of the
// whole blob (see the file comment for why not a re-slice).
func (cs *compactStore) windowReader(v graph.NodeID) *bits.Reader {
	return bits.NewReaderAt(cs.vicBlob, 8*int(cs.vicOff[v]), 8*int(cs.vicOff[v+1]))
}

// windowContains answers w ∈ V(v) straight off the encoded ID stream:
// member IDs are ascending, so the scan stops at the first ID >= w and
// never touches the parent/distance sections or materializes the window.
// This keeps the per-hop membership probes of the forwarding loops cheap
// in the compact regime.
func (cs *compactStore) windowContains(v, w graph.NodeID) bool {
	ln := cs.windowLen(v)
	if ln == 0 {
		return false
	}
	r := cs.windowReader(v)
	id := graph.NodeID(r.ReadBits(cs.idWidth))
	for i := 1; ; i++ {
		if id >= w {
			return id == w
		}
		if i == ln {
			return false
		}
		id += graph.NodeID(r.ReadGamma())
	}
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
			func() *encScratch { return &encScratch{} },
			func(sc *encScratch, i int) { cs.encodeForestRow(&sc.w, base+i, rows[i]) })
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
// sequential pass over the bit stream — what table compiles and folds
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
		int64(len(cs.radii))*f32Bytes +
		int64(len(cs.forest)) +
		int64(len(cs.degOff))*off64Bytes
}

// foldCompactInto re-encodes the chain's logical state in the compact wire
// format as a fresh compactStore, in two passes so shards encode
// independently over the worker pool: pass 1 computes every window's
// encoded size — analytically for overlaid windows, and by carrying the
// old byte range for untouched ones, which re-encode byte-identically
// because the widths never change across folds — pass 2 writes each
// window into its disjoint blob slice, raw-copying the untouched ranges.
// Forest rows always re-encode: their port indices rebuild against the
// current graph.
func (s *Snapshot) foldCompactInto(f *Snapshot) {
	old := s.store.(*compactStore)
	n := s.g.N()
	cs := &compactStore{
		n: n, k: s.k, pg: s.g,
		idWidth: old.idWidth, pWidth: old.pWidth,
		vicLen: make([]int32, n),
		radii:  make([]float32, n),
	}
	vicOff := make([]int64, n+1)
	sizes := parallel.Map(n, func(v int) int64 {
		if set := s.ov.window(graph.NodeID(v)); set != nil {
			cs.vicLen[v] = int32(set.Size())
			cs.radii[v] = float32(set.Radius())
			return encodedWindowBytes(cs.idWidth, cs.pWidth, set.Entries)
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
		func() *encScratch { return &encScratch{ix: make(vicinity.Index, n)} },
		func(sc *encScratch, v int) {
			dst := cs.vicBlob[vicOff[v]:vicOff[v+1]]
			if set := s.ov.window(graph.NodeID(v)); set != nil {
				sc.w.Reset()
				encodeWindow(&sc.w, cs.idWidth, cs.pWidth, set.Entries, sc.ix)
				copy(dst, sc.w.Bytes())
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
		func() *encScratch { return &encScratch{} },
		func(sc *encScratch, row int) { cs.encodeForestRow(&sc.w, row, s.forestRow(row)) })

	f.store = cs
}
