package bits

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"strings"
	"testing"
)

// refWriter is the bit-at-a-time reference Writer: one bit appended per
// step, MSB-first within each byte. The word-at-a-time Writer must produce
// the same bytes for every sequence of writes.
type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) writeBits(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		if v>>uint(i)&1 == 1 {
			w.buf[w.nbit/8] |= 0x80 >> uint(w.nbit%8)
		}
		w.nbit++
	}
}

func (w *refWriter) writeGamma(v uint64) {
	n := bits.Len64(v) - 1
	w.writeBits(0, n)
	w.writeBits(v, n+1)
}

// refBit returns bit pos of buf.
func refBit(buf []byte, pos int) uint64 { return uint64(buf[pos/8]>>uint(7-pos%8)) & 1 }

// refAt is At one bit at a time; ok is false exactly where At must panic.
func refAt(buf []byte, pos, width int) (v uint64, ok bool) {
	if width < 0 || width > 64 || pos < 0 || pos+width > 8*len(buf) {
		return 0, false
	}
	for i := 0; i < width; i++ {
		v = v<<1 | refBit(buf, pos+i)
	}
	return v, true
}

// refReader is the bit-at-a-time reference Reader over bits [pos, end);
// ok is false exactly where the Reader must panic.
type refReader struct {
	buf      []byte
	pos, end int
}

func (r *refReader) readBits(width int) (uint64, bool) {
	if width < 0 || width > 64 || r.pos+width > r.end {
		return 0, false
	}
	v, _ := refAt(r.buf, r.pos, width)
	r.pos += width
	return v, true
}

func (r *refReader) readGamma() (uint64, bool) {
	n := 0
	for r.pos+n < r.end && refBit(r.buf, r.pos+n) == 0 {
		n++
	}
	if r.pos+2*n+1 > r.end || n >= 64 {
		return 0, false
	}
	r.pos += n
	return r.readBits(n + 1)
}

// panics runs fn and returns the codec panic it raised, or "" if it
// returned. A runtime error (an index out of range) fails the test: the
// codec must reject bad input with its own message.
func panics(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		switch p := recover().(type) {
		case nil:
		case string:
			if !strings.HasPrefix(p, "bits: ") {
				t.Fatalf("panic %q is not the codec's own", p)
			}
			msg = p
		default:
			t.Fatalf("panic %v is not the codec's own", p)
		}
	}()
	fn()
	return ""
}

// FuzzReaderMatchesReference runs a script of ReadBits (widths 0–64, and
// out-of-range ones), ReadGamma and At over a buffer of 0–64 bytes, read
// from a start offset of 0–7 bits to a chosen end, and requires every
// result — and every panic — to match the bit-at-a-time reference. Buffers
// longer than 8 bytes put most reads on the word path and the last ones
// on the tail path; zero-filled stretches make long and unterminated gamma
// codes.
func FuzzReaderMatchesReference(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0x5a, 0x00, 0xff, 0x13}, 16), uint8(3), uint16(500), []byte{0, 13, 1, 0, 2, 7, 0, 64, 1, 0})
	f.Add(make([]byte, 12), uint8(0), uint16(96), []byte{1, 0, 1, 0})
	f.Add([]byte{0x80}, uint8(7), uint16(8), []byte{0, 1, 0, 1})
	f.Add([]byte{}, uint8(0), uint16(0), []byte{0, 0, 1, 0, 2, 0})
	f.Add(append(make([]byte, 9), 0xff, 0xff, 0xff), uint8(5), uint16(96), []byte{1, 0, 0, 70, 0, 253})
	f.Fuzz(func(t *testing.T, buf []byte, start uint8, end uint16, script []byte) {
		if len(buf) > 64 {
			buf = buf[:64]
		}
		from := min(int(start%8), 8*len(buf))
		to := from + int(end)%(8*len(buf)-from+1)
		r := NewReaderAt(buf, from, to)
		ref := &refReader{buf: buf, pos: from, end: to}
		for i := 0; i+1 < len(script); i += 2 {
			arg := int(script[i+1])
			switch script[i] % 3 {
			case 0: // widths 0..64 and a few outside, as int8 wraps
				width := arg % 67
				if arg >= 128 {
					width = int(int8(script[i+1]))
				}
				want, ok := ref.readBits(width)
				var got uint64
				msg := panics(t, func() { got = r.ReadBits(width) })
				if ok != (msg == "") || got != want {
					t.Fatalf("ReadBits(%d) at %d/%d: got %#x (panic %q), want %#x (ok %v)", width, ref.pos, to, got, msg, want, ok)
				}
				if !ok {
					return
				}
			case 1:
				at := r.pos
				want, ok := ref.readGamma()
				var got uint64
				msg := panics(t, func() { got = r.ReadGamma() })
				if ok != (msg == "") || got != want {
					t.Fatalf("ReadGamma at %d/%d: got %d (panic %q), want %d (ok %v)", at, to, got, msg, want, ok)
				}
				if !ok {
					return
				}
			case 2: // random access anywhere in the buffer, one bit past it at most
				pos := arg * (8*len(buf) + 1) / 256
				width := int(script[i]/3) % 67
				want, ok := refAt(buf, pos, width)
				var got uint64
				msg := panics(t, func() { got = At(buf, pos, width) })
				if ok != (msg == "") || got != want {
					t.Fatalf("At(%d, %d) in %d bytes: got %#x (panic %q), want %#x (ok %v)", pos, width, len(buf), got, msg, want, ok)
				}
			}
			if r.Remaining() != ref.end-ref.pos {
				t.Fatalf("Remaining %d, want %d", r.Remaining(), ref.end-ref.pos)
			}
		}
	})
}

// FuzzWriterMatchesReference runs a script of WriteBits (widths 0–64) and
// WriteGamma (values up to 2^64−1, so codes past 64 bits take the
// two-field path), with Bytes() read mid-stream and Reset reusing the
// buffer, and requires the Writer's length after every step, and its
// bytes at every mid-stream read and at the end, to equal the bit-at-a-time
// reference's.
func FuzzWriterMatchesReference(f *testing.F) {
	f.Add([]byte{0, 64, 0xff, 1, 30, 2, 0, 7, 3, 1, 60, 2})
	f.Add([]byte{1, 33, 1, 31, 1, 63, 2, 3, 1, 1})
	f.Add([]byte{0, 3, 0, 61, 0, 64, 2, 0, 1, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		var w Writer
		var ref refWriter
		for i := 0; i+1 < len(script); i += 2 {
			arg := script[i+1]
			// A value with arg's bit pattern spread over all 64 bits.
			v := binary.LittleEndian.Uint64(bytes.Repeat([]byte{arg ^ byte(i)}, 8)) * 0x9e3779b97f4a7c15
			switch script[i] % 4 {
			case 0:
				width := int(arg) % 65
				w.WriteBits(v, width)
				ref.writeBits(v, width)
			case 1: // a gamma value of 64-arg%64 significant bits
				g := v>>(arg%64) | 1<<(63-arg%64)
				w.WriteGamma(g)
				ref.writeGamma(g)
			case 2:
				if !bytes.Equal(w.Bytes(), ref.buf) {
					t.Fatalf("step %d: mid-stream bytes %x, reference %x", i/2, w.Bytes(), ref.buf)
				}
			case 3:
				w.Reset()
				ref = refWriter{}
			}
			if w.Len() != ref.nbit {
				t.Fatalf("step %d: writer length %d bits, reference %d", i/2, w.Len(), ref.nbit)
			}
		}
		if !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("writer bytes %x, reference %x", w.Bytes(), ref.buf)
		}
	})
}

// runMatches reads count fields of width bits with ReadRun into a []T and
// the same fields one at a time from the reference, and fails the test
// unless both return the same values or both reject the run. It reports
// whether the run was read.
func runMatches[T Integer](t *testing.T, r *Reader, ref *refReader, width, count int) bool {
	t.Helper()
	at := ref.pos
	want, ok := make([]T, count), uint(width) <= 64 // a bad width is rejected on any run
	for i := 0; ok && i < count; i++ {
		v, good := ref.readBits(width)
		if !good {
			ok = false
			break
		}
		want[i] = T(v)
	}
	got := make([]T, count)
	msg := panics(t, func() { ReadRun(r, got, width) })
	if ok != (msg == "") || ok && !slices.Equal(got, want) {
		t.Fatalf("ReadRun(%d × %d bits) into %T at %d/%d: got %v (panic %q), want %v (ok %v)", count, width, got, at, ref.end, got, msg, want, ok)
	}
	return ok
}

// FuzzReadRunMatchesReference runs a script of ReadRun calls — widths
// 0–64 and a few outside, runs of 0–47 fields into a []uint64, an []int32
// (widths up to 31) or a []uint16 (widths up to 16) — over a buffer of
// 0–64 bytes read from a start offset of 0–7 bits to a chosen end, and
// requires every field, and every rejection, to be the bit-at-a-time
// reference's. Runs cross and end inside the buffer's last 8 bytes, and
// runs longer than the stream, or of a bad width, must panic.
func FuzzReadRunMatchesReference(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0x5a, 0x00, 0xff, 0x13}, 16), uint8(3), uint16(500), []byte{8, 20, 3, 40, 64, 3, 13, 9, 0, 5, 1, 47})
	f.Add(make([]byte, 12), uint8(0), uint16(96), []byte{8, 12})
	f.Add([]byte{0x80, 0x01, 0x02}, uint8(7), uint16(17), []byte{1, 17})
	f.Add(append(make([]byte, 9), 0xff, 0xff, 0xff), uint8(5), uint16(96), []byte{57, 1, 58, 1, 200, 1})
	f.Fuzz(func(t *testing.T, buf []byte, start uint8, end uint16, script []byte) {
		if len(buf) > 64 {
			buf = buf[:64]
		}
		from := min(int(start%8), 8*len(buf))
		to := from + int(end)%(8*len(buf)-from+1)
		r := NewReaderAt(buf, from, to)
		ref := &refReader{buf: buf, pos: from, end: to}
		for i := 0; i+1 < len(script); i += 2 {
			width, count := int(script[i])%67, int(script[i+1])%48
			if script[i] >= 128 {
				width = int(int8(script[i]))
			}
			var ok bool
			switch {
			case width >= 0 && width <= 16 && count%3 == 0:
				ok = runMatches[uint16](t, r, ref, width, count)
			case width >= 0 && width <= 31 && count%3 == 1:
				ok = runMatches[int32](t, r, ref, width, count)
			default:
				ok = runMatches[uint64](t, r, ref, width, count)
			}
			if !ok {
				return
			}
			if r.Remaining() != ref.end-ref.pos {
				t.Fatalf("Remaining %d, want %d", r.Remaining(), ref.end-ref.pos)
			}
		}
	})
}

// refSelect is SelectOne (one true) or SelectZero one bit at a time.
func refSelect(buf []byte, from, to, r int, one bool) int {
	for pos := from; pos < to; pos++ {
		if (refBit(buf, pos) == 1) == one {
			if r == 0 {
				return pos
			}
			r--
		}
	}
	return to
}

// FuzzSelectMatchesReference checks the select kernels against bit-at-a-time
// loops over a buffer of 0–64 bytes. The in-word select must find every
// set bit of every 8-byte word of the buffer by rank; SelectOne and
// SelectZero, on ranges from any bit to any later one, must give the
// reference's position for every rank up to one past the bits the range
// holds; and ReadUnaryRun, from any start to any end, must OR the codes'
// running sums, shifted by 0–7 bits, above the low bits a column holds,
// as the reference reads them, or reject a run that passes the end with
// the reader where it was. Ranges cross and end in the buffer's last 8
// bytes, where the walks assemble their words a byte at a time.
func FuzzSelectMatchesReference(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0x5a, 0x00, 0xff, 0x13}, 16), uint16(3), uint16(500), uint8(9))
	f.Add(make([]byte, 12), uint16(0), uint16(96), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 20), uint16(7), uint16(150), uint8(40))
	f.Add([]byte{0x80}, uint16(7), uint16(8), uint8(1))
	f.Add(append(make([]byte, 9), 0x01, 0x80, 0xff), uint16(5), uint16(96), uint8(3))
	f.Fuzz(func(t *testing.T, buf []byte, start, end uint16, count uint8) {
		if len(buf) > 64 {
			buf = buf[:64]
		}
		for i := 0; i+8 <= len(buf); i++ {
			x := binary.BigEndian.Uint64(buf[i:])
			for r := range bits.OnesCount64(x) {
				if got, want := select64(x, r), refSelect(buf[i:i+8], 0, 64, r, true); got != want {
					t.Fatalf("select64(%#x, %d) = %d, want %d", x, r, got, want)
				}
			}
		}
		from := int(start) % (8*len(buf) + 1)
		to := from + int(end)%(8*len(buf)-from+1)
		for r := 0; r <= to-from+1; r++ {
			if got, want := SelectOne(buf, from, to, r), refSelect(buf, from, to, r, true); got != want {
				t.Fatalf("SelectOne(%d, %d, %d) = %d, want %d", from, to, r, got, want)
			}
			if got, want := SelectZero(buf, from, to, r), refSelect(buf, from, to, r, false); got != want {
				t.Fatalf("SelectZero(%d, %d, %d) = %d, want %d", from, to, r, got, want)
			}
		}
		// Sums ORed above low bits already in the column, shifted by 0–7.
		shift := int(count) / 32
		low := func(i int) uint64 { return uint64(i*7+int(start)) & (1<<shift - 1) }
		want, ok, zeros := make([]uint64, int(count)%48), true, uint64(0)
		ref := &refReader{buf: buf, pos: from, end: to}
		for i := range want {
			for ; ref.pos < to && refBit(buf, ref.pos) == 0; ref.pos++ {
				zeros++
			}
			if ref.pos == to {
				ok = false
				break
			}
			ref.pos++
			want[i] = zeros<<shift | low(i)
		}
		r := NewReaderAt(buf, from, to)
		got := make([]uint64, len(want))
		for i := range got {
			got[i] = low(i)
		}
		msg := panics(t, func() { ReadUnaryRun(r, got, shift) })
		if ok != (msg == "") || ok && !slices.Equal(got, want) {
			t.Fatalf("ReadUnaryRun(%d codes, shift %d) in [%d, %d): got %v (panic %q), want %v (ok %v)", len(want), shift, from, to, got, msg, want, ok)
		}
		left := to - from // a rejected run leaves the reader where it was
		if ok {
			left = to - ref.pos
		}
		if r.Remaining() != left {
			t.Fatalf("ReadUnaryRun left %d bits, want %d (ok %v)", r.Remaining(), left, ok)
		}
	})
}
