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
// a whole column — ReadRun a run of fixed-width fields, ReadUnaryRun a run
// of unary codes summed into it — taking several fields from each load, and
// SelectOne/SelectZero find the r-th one or zero of a bit range by a
// popcount walk over its words and one select inside the word that holds
// it: the reads of an Elias–Fano high-bits array. The layout is pinned by
// the fuzz suite (differential against a bit-at-a-time reference), by the
// compact-snapshot encoding digests and by the goldens.
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
// a-priori width bound (O~(sqrt(n)) hops on a ring, §4.2). The code is
// 2*floor(log2 v) + 1 bits long; one of at most 64 bits (v < 2^32) is a
// single field: its leading zeros are v's own high bits.
func (w *Writer) WriteGamma(v uint64) {
	if v == 0 {
		panic("bits: gamma coding needs v >= 1")
	}
	n := 2*mbits.Len64(v) - 1
	if n <= 64 {
		w.WriteBits(v, n)
		return
	}
	w.WriteBits(0, n/2)
	w.WriteBits(v, n/2+1)
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
	mask := uint64(1)<<width - 1
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
		for f := range run { // one rotate a field keeps one shift count in play
			word = mbits.RotateLeft64(word, width)
			run[f] = T(word & mask)
		}
		dst = dst[len(run):]
		pos += len(run) * width
	}
	r.pos = pos
}

// ReadUnaryRun reads the next len(dst) unary codes, each a run of zeros
// ended by a one, and ORs their running sums into dst shifted left by
// shift: dst[i] |= (the zeros read before the (i+1)-th one) << shift —
// member i's bucket in an Elias–Fano high-bits array, set above the low
// bits dst already holds. It consumes through the last one. A word load
// yields every one it holds, taken from the low end (a one's count of
// zeros before it is its position less the ones ahead of it), so no step
// waits on the one before. It panics, leaving the reader where it was, on
// a run whose last one is not before the end of the stream, and on a
// shift outside [0, 63].
func ReadUnaryRun[T Integer](r *Reader, dst []T, shift int) {
	if uint(shift) > 63 {
		panic(fmt.Sprintf("bits: invalid shift %d", shift))
	}
	buf, end, sh := r.buf, r.end, uint(shift)&63 // & 63 drops Go's shift check
	pos, zeros := r.pos, 0
	for i := 0; i < len(dst); {
		if pos >= end {
			panic(fmt.Sprintf("bits: unary run of %d codes past end (%d/%d)", len(dst), r.pos, end))
		}
		var word uint64
		if j := pos >> 3; j+8 <= len(buf) {
			word = binary.BigEndian.Uint64(buf[j:]) << uint(pos&7)
		} else {
			word = load(buf, pos)
		}
		n := min(64-pos&7, end-pos) // the load's bits before the end
		word &^= ^uint64(0) >> uint(n)
		c := mbits.OnesCount64(word)
		if c >= len(dst)-i { // the run ends in this load, at its c-th one
			c = len(dst) - i
			n = select64(word, c-1) + 1
			word &^= ^uint64(0) >> uint(n)
		}
		run, top := dst[i:i+c], zeros+63
		for k := len(run) - 1; k >= 0; k-- {
			run[k] |= T((top - k - mbits.TrailingZeros64(word)) << sh)
			word &= word - 1
		}
		i += c
		zeros += n - c
		pos += n
	}
	r.pos = pos
}

// SelectOne returns the position in buf of the r-th one (counting from 0)
// of bits [from, to), or to when the range holds r or fewer: a popcount
// walk over the range's words, then one in-word select. Like At it loads
// a word where 8 bytes remain and assembles one in buf's last 8 bytes. It
// panics on a range outside buf.
func SelectOne(buf []byte, from, to, r int) int { return selectBit(buf, from, to, r, 0) }

// SelectZero is SelectOne for the r-th zero: the end of bucket r in an
// Elias–Fano high-bits array.
func SelectZero(buf []byte, from, to, r int) int { return selectBit(buf, from, to, r, ^uint64(0)) }

// selectBit is SelectOne over buf's bits xor flip.
func selectBit(buf []byte, from, to, r int, flip uint64) int {
	if from < 0 || from > to || to > 8*len(buf) {
		panic(fmt.Sprintf("bits: select in [%d, %d) outside a %d-bit buffer", from, to, 8*len(buf)))
	}
	for pos := from; pos < to; {
		var word uint64
		if i := pos >> 3; i+8 <= len(buf) {
			word = binary.BigEndian.Uint64(buf[i:]) << uint(pos&7)
		} else {
			word = load(buf, pos)
		}
		n := min(64-pos&7, to-pos) // the load's bits before the end
		word = (word ^ flip) &^ (^uint64(0) >> uint(n))
		c := mbits.OnesCount64(word)
		if r < c {
			return pos + select64(word, r)
		}
		r -= c
		pos += n
	}
	return to
}

// select64 returns the position, counted from the MSB, of x's r-th set
// bit (counting from 0); x holds more than r. It is branch-free: the bytes
// in MSB-first order get running set-bit counts (one multiply), the count
// of bytes whose running count is at most r names the byte that holds the
// bit, and a table selects within that byte.
func select64(x uint64, r int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	x = mbits.ReverseBytes64(x) // byte j from the low end is the j-th from the MSB
	c := x - x>>1&0x5555555555555555
	c = c&0x3333333333333333 + c>>2&0x3333333333333333
	c = (c + c>>4) & 0x0f0f0f0f0f0f0f0f
	sums := c * ones // byte j: the set bits of bytes 0..j
	j := (((uint64(r)*ones | highs) - sums) & highs >> 7 * ones >> 56) * 8
	rank := r - int(sums<<8>>j&0xff) // r less the set bits of the bytes before
	return int(j) + int(selectInByte[x>>j&0xff][rank])
}

// selectInByte[b][k] is the position, counted from the MSB, of byte b's
// k-th set bit.
var selectInByte = func() (t [256][8]uint8) {
	for b := range 256 {
		k := 0
		for pos := range 8 {
			if b<<pos&0x80 != 0 {
				t[b][k] = uint8(pos)
				k++
			}
		}
	}
	return t
}()

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
// ReadBits and At open-code the word load as their first
// branch, which keeps the byte loop, the error formatting and the two-load
// case out of their common case, and so do the walks.
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
