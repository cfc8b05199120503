// Package bits provides bit-granular writers and readers for the compact
// explicit-route address format of §4.2: each hop at a node of degree d is
// encoded in ceil(log2 d) bits, so address sizes are measured in bits, not
// bytes. (Named after its purpose; the stdlib math/bits package is unrelated
// and used via alias where needed.)
//
// The same codec carries the compact snapshot regime's bit-packed route
// state, whose routing reads, fold and decode sweeps touch every window of
// a paper-scale snapshot — so the kernels work a 64-bit word at a time.
// The layout is a plain bit string, MSB-first within each byte: a read
// takes one unaligned big-endian word load at the field's byte and shifts
// the field out of it, and the Writer fills a word-sized accumulator and
// appends it whole. A field of up to 57 bits fits one load whatever its
// bit offset; wider fields take two. Within the last 8 bytes of a buffer
// the same reads assemble the word a byte at a time. Two run kernels read
// a whole column of fields — ReadRun a fixed-width run, ReadGammaRun a
// gamma run summed as deltas — taking several fields from each load. The
// layout is pinned by the fuzz suite (differential against a bit-at-a-time
// reference), by the compact-snapshot encoding digests and by the goldens.
package bits

import (
	"encoding/binary"
	"fmt"
	mbits "math/bits"
)

// wordField is the widest field one word load holds at any bit offset: a
// load at the field's byte carries 64 bits, of which up to 7 precede it.
const wordField = 57

// Writer accumulates a bit string most-significant-bit first.
type Writer struct {
	buf  []byte // whole words written so far
	acc  uint64 // pending bits, left-aligned
	nacc int    // number of pending bits, 0..63
}

// WriteBits appends the low `width` bits of v (0 <= width <= 64),
// most-significant first. The bits go into the accumulator; when it fills,
// the whole word is appended to the buffer and the rest of the field
// starts the next word.
func (w *Writer) WriteBits(v uint64, width int) {
	if uint(width) > 64 {
		panic(fmt.Sprintf("bits: invalid width %d", width))
	}
	v <<= uint(64 - width) // left-align, dropping the bits above width
	w.acc |= v >> uint(w.nacc)
	free := 64 - w.nacc
	if width < free {
		w.nacc += width
		return
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc)
	w.acc = v << uint(free)
	w.nacc = width - free
}

// WriteGamma appends v >= 1 in Elias gamma coding: floor(log2 v) zero bits,
// then the binary representation of v. Used for hop counts, which have no
// a-priori width bound (O~(sqrt(n)) hops on a ring, §4.2), and for the
// compact snapshot's member-ID deltas. A code of at most 64 bits (v < 2^32)
// is a single field: its leading zeros are v's own high bits.
func (w *Writer) WriteGamma(v uint64) {
	n := GammaLen(v)
	if n <= 64 {
		w.WriteBits(v, n)
		return
	}
	w.WriteBits(0, n/2)
	w.WriteBits(v, n/2+1)
}

// GammaLen returns the encoded length of WriteGamma(v) in bits without
// writing: 2*floor(log2 v) + 1. The compact fold's size pass uses it to
// compute every shard's encoded size analytically before any shard is
// written.
func GammaLen(v uint64) int {
	if v == 0 {
		panic("bits: gamma coding needs v >= 1")
	}
	return 2*mbits.Len64(v) - 1
}

// Len returns the number of bits written.
func (w *Writer) Len() int { return 8*len(w.buf) + w.nacc }

// Reset truncates the writer to zero bits, retaining the buffer for reuse.
// The compact snapshot encoder resets one writer per window instead of
// allocating a fresh one per node.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nacc = 0, 0
}

// Bytes returns the accumulated bit string padded with zero bits to a byte
// boundary. The slice is owned by the writer: it aliases the buffer, which
// later writes extend, so copy it out before writing on or Reset.
func (w *Writer) Bytes() []byte {
	n := len(w.buf)
	// The pending word goes into the buffer's spare capacity, past its
	// length, so the next full word still lands at n.
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc)[:n]
	return w.buf[:n+(w.nacc+7)/8]
}

// Reader consumes a bit string produced by Writer.
type Reader struct {
	buf      []byte
	pos, end int // next bit to read; one past the last valid bit
}

// NewReaderAt returns a reader over bits [from, to) of buf — one window of
// a shared blob, read in place. The bytes of buf past the window are still
// loaded (never returned), so every window but the blob's last reads on the
// word path.
func NewReaderAt(buf []byte, from, to int) *Reader {
	if from < 0 || from > to || to > 8*len(buf) {
		panic("bits: reader bounds outside the buffer")
	}
	return &Reader{buf: buf, pos: from, end: to}
}

// ReadBits consumes `width` bits (0 <= width <= 64) and returns them as the
// low bits of the result. It panics on any other width and past the end of
// the stream (always a codec bug here).
func (r *Reader) ReadBits(width int) uint64 {
	if i := r.pos >> 3; uint(width) <= wordField && r.pos+width <= r.end && i+8 <= len(r.buf) {
		v := binary.BigEndian.Uint64(r.buf[i:]) << uint(r.pos&7) >> uint(64-width)
		r.pos += width
		return v
	}
	if uint(width) > 64 {
		panic(fmt.Sprintf("bits: invalid width %d", width))
	}
	if r.pos+width > r.end {
		panic(fmt.Sprintf("bits: read %d bits past end (%d/%d)", width, r.pos, r.end))
	}
	v := field(r.buf, r.pos, width)
	r.pos += width
	return v
}

// ReadGamma consumes one Elias-gamma-coded value. A code of up to 57 bits
// (every value below 2^28) is decoded from one word: its zero run is that
// word's leading-zero count and the value is the next run+1 bits. Longer
// codes, and codes in the last 8 bytes of the buffer, go through TryGamma.
// It panics where TryGamma returns an error.
func (r *Reader) ReadGamma() uint64 {
	if i := r.pos >> 3; i+8 <= len(r.buf) {
		word := binary.BigEndian.Uint64(r.buf[i:]) << uint(r.pos&7)
		if ln := 2*mbits.LeadingZeros64(word) + 1; ln <= wordField && r.pos+ln <= r.end {
			r.pos += ln
			return word >> uint(64-ln)
		}
	}
	v, err := r.TryGamma()
	if err != nil {
		panic(err.Error())
	}
	return v
}

// TryGamma is ReadGamma for a stream from outside the program: a code that
// does not end before the end of the stream, or a zero run of 64 or more
// bits (which encodes no uint64), is an error, and the reader stays where
// it was. The zero run is counted up to 57 bits a load and the value read
// as one field.
func (r *Reader) TryGamma() (uint64, error) {
	for n := 0; ; {
		lz := min(mbits.LeadingZeros64(load(r.buf, r.pos+n)), wordField)
		n += lz
		switch {
		case r.pos+n >= r.end:
			return 0, fmt.Errorf("bits: gamma read past end (%d/%d)", r.pos, r.end)
		case n >= 64:
			return 0, fmt.Errorf("bits: gamma zero run of %d bits at %d encodes no uint64", n, r.pos)
		case lz < wordField:
			if r.pos+2*n+1 > r.end {
				return 0, fmt.Errorf("bits: gamma read past end (%d/%d)", r.pos, r.end)
			}
			v := field(r.buf, r.pos+n, n+1)
			r.pos += 2*n + 1
			return v, nil
		}
	}
}

// Integer is the column types the run kernels fill.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// ReadRun fills dst with the next len(dst) fields of `width` bits each —
// len(dst) ReadBits(width) calls, converted to T, but each word load
// yields as many fields as 57 bits hold (seven 8-bit fields, nineteen
// 3-bit ones). It panics where those calls would, reading nothing: on a
// width outside [0, 64] (even for an empty run), and on a run that does
// not end before the end of the stream. Fields wider than 57 bits, and
// fields in the last 8 bytes of the buffer, are read one at a time.
func ReadRun[T Integer](r *Reader, dst []T, width int) {
	if uint(width) > 64 {
		panic(fmt.Sprintf("bits: invalid width %d", width))
	}
	if r.pos+len(dst)*width > r.end {
		panic(fmt.Sprintf("bits: read %d bits past end (%d/%d)", len(dst)*width, r.pos, r.end))
	}
	if width == 0 || width > wordField {
		for i := range dst {
			dst[i] = T(r.ReadBits(width))
		}
		return
	}
	buf, pos, per := r.buf, r.pos, wordField/width // fields any load holds whole
	for len(dst) > 0 {
		j := pos >> 3
		if j+8 > len(buf) {
			dst[0] = T(field(buf, pos, width))
			pos += width
			dst = dst[1:]
			continue
		}
		word := binary.BigEndian.Uint64(buf[j:]) << uint(pos&7)
		run := dst[:min(len(dst), per)]
		for f := range run { // the shifts are below 64: & 63 drops Go's check
			run[f] = T(word >> (uint(64-width) & 63))
			word <<= uint(width) & 63
		}
		dst = dst[len(run):]
		pos += len(run) * width
	}
	r.pos = pos
}

// ReadGammaRun fills dst with the next len(dst) Elias-gamma codes summed
// as deltas from prev: dst[i] = prev + the first i+1 codes, as
// len(dst) ReadGamma calls would give — an ascending ID column from its
// first ID. Each word load yields every code it holds whole; a code it
// cuts, a code longer than a load and the codes in the last 8 bytes of the
// buffer go through ReadGamma, which panics on a code that does not end
// before the end of the stream.
func ReadGammaRun[T Integer](r *Reader, dst []T, prev T) {
	buf, end := r.buf, r.end
	for i := 0; i < len(dst); {
		pos, took := r.pos, false
		if j := pos >> 3; j+8 <= len(buf) {
			word := binary.BigEndian.Uint64(buf[j:]) << uint(pos&7)
			left := min(64-(pos&7), end-pos) // bits of the load before the end
			for ; i < len(dst); i++ {
				// |1 spares the zero-word branch: it shortens only a zero
				// run of 63 bits, which does not fit either way.
				ln := 2*mbits.LeadingZeros64(word|1) + 1
				if ln > left {
					break
				}
				prev += T(word >> (uint(64-ln) & 63)) // ln <= left <= 64 is odd
				dst[i] = prev
				word <<= uint(ln) & 63
				left -= ln
				pos += ln
				took = true
			}
			r.pos = pos
		}
		if !took && i < len(dst) {
			prev += T(r.ReadGamma())
			dst[i] = prev
			i++
		}
	}
}

// At returns the `width` bits (0 <= width <= 64) starting at bit position
// pos of buf (MSB-first, the Writer's layout) without constructing a
// Reader — random access into a shared bit-packed array, e.g. one parent
// field of a compact snapshot row. It panics on a width outside [0, 64]
// and on a field that does not lie inside buf.
func At(buf []byte, pos, width int) uint64 {
	if i := pos >> 3; uint(width) <= wordField && pos >= 0 && i+8 <= len(buf) {
		return binary.BigEndian.Uint64(buf[i:]) << uint(pos&7) >> uint(64-width)
	}
	if uint(width) > 64 || pos < 0 || pos+width > 8*len(buf) {
		panic(fmt.Sprintf("bits: field of %d bits at %d outside a %d-bit buffer", width, pos, 8*len(buf)))
	}
	return field(buf, pos, width)
}

// field returns the width bits at pos, 0 <= width <= 64; the caller has
// checked the bounds. It is what ReadBits and At reduce to off their word
// path: a field wider than one load is read as two.
func field(buf []byte, pos, width int) uint64 {
	if width > wordField {
		hi := load(buf, pos) >> uint(96-width) // the first width-32 bits
		return hi<<32 | load(buf, pos+width-32)>>32
	}
	return load(buf, pos) >> uint(64-width)
}

// load returns the 64 bits of buf from bit pos on, left-aligned: at least
// 57 of them are buf's (the rest zero) when 8 bytes remain from pos's byte,
// in one unaligned big-endian load. Within the last 8 bytes of buf the word
// is assembled a byte at a time, and bits past the end read as zero.
// ReadBits, ReadGamma and At open-code the word load as their first
// branch, which keeps the byte loop, the error formatting and the two-load
// case out of their common case.
func load(buf []byte, pos int) uint64 {
	i := pos >> 3
	if i+8 <= len(buf) {
		return binary.BigEndian.Uint64(buf[i:]) << uint(pos&7)
	}
	var word uint64
	for j := i; j < i+8; j++ {
		word <<= 8
		if j < len(buf) {
			word |= uint64(buf[j])
		}
	}
	return word << uint(pos&7)
}

// Width returns the number of bits needed to encode values in [0, n), i.e.
// ceil(log2 n), with Width(0) = Width(1) = 0 (a degree-1 node needs no label
// bits: there is only one port).
func Width(n int) int {
	if n <= 1 {
		return 0
	}
	return mbits.Len64(uint64(n - 1))
}
