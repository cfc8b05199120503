package bits

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 1)
	w.WriteBits(0x3FF, 10)
	r := NewReader(w.Bytes(), w.Len())
	if v := r.ReadBits(3); v != 0b101 {
		t.Errorf("got %b", v)
	}
	if v := r.ReadBits(8); v != 0xFF {
		t.Errorf("got %x", v)
	}
	if v := r.ReadBits(1); v != 0 {
		t.Errorf("got %d", v)
	}
	if v := r.ReadBits(10); v != 0x3FF {
		t.Errorf("got %x", v)
	}
	if r.Remaining() != 0 {
		t.Errorf("remaining %d", r.Remaining())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(vals []uint16, widthsSeed int64) bool {
		rng := rand.New(rand.NewSource(widthsSeed))
		var w Writer
		widths := make([]int, len(vals))
		masked := make([]uint64, len(vals))
		for i, v := range vals {
			widths[i] = rng.Intn(17) // 0..16 bits
			masked[i] = uint64(v) & (1<<uint(widths[i]) - 1)
			w.WriteBits(uint64(v), widths[i])
		}
		r := NewReader(w.Bytes(), w.Len())
		for i := range vals {
			if r.ReadBits(widths[i]) != masked[i] {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGammaRoundTrip(t *testing.T) {
	var w Writer
	vals := []uint64{1, 2, 3, 4, 7, 8, 100, 1023, 1024, 123456789}
	for _, v := range vals {
		w.WriteGamma(v)
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, v := range vals {
		if got := r.ReadGamma(); got != v {
			t.Errorf("gamma roundtrip got %d want %d", got, v)
		}
	}
}

func TestGammaProperty(t *testing.T) {
	f := func(v uint64) bool {
		if v == 0 {
			v = 1
		}
		var w Writer
		w.WriteGamma(v)
		r := NewReader(w.Bytes(), w.Len())
		return r.ReadGamma() == v && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGammaZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var w Writer
	w.WriteGamma(0)
}

func TestReadPastEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var w Writer
	w.WriteBits(1, 1)
	r := NewReader(w.Bytes(), w.Len())
	r.ReadBits(2)
}

// TestReaderRejectsBadInput pins the Reader's own panics on input it
// cannot decode: an out-of-range width used to read silently as 0 (70) or
// die with a runtime index error (-3), and a zero run longer than any
// uint64's gamma code used to decode to a wrapped value. The select walks
// reject a range outside the buffer, and a unary run a bad shift or a
// second one the stream does not hold.
func TestReaderRejectsBadInput(t *testing.T) {
	var w Writer
	w.WriteBits(0, 64)
	w.WriteBits(0, 6)
	w.WriteBits(1, 1)
	w.WriteBits(0, 64)
	w.WriteBits(0, 6)
	zeros70 := w.Bytes()
	for _, tc := range []struct {
		name string
		read func(r *Reader)
		want string
	}{
		{"width 70", func(r *Reader) { r.ReadBits(70) }, "invalid width 70"},
		{"width -3", func(r *Reader) { r.ReadBits(-3) }, "invalid width -3"},
		{"gamma zero run 70", func(r *Reader) { r.ReadGamma() }, "zero run"},
		{"gamma past end", func(r *Reader) { r.ReadBits(64); r.ReadBits(8); r.ReadGamma() }, "past end"},
		{"At width 65", func(r *Reader) { At(zeros70, 0, 65) }, "outside"},
		{"At past end", func(r *Reader) { At(zeros70, 8*len(zeros70)-3, 4) }, "outside"},
		{"select past end", func(r *Reader) { SelectOne(zeros70, 0, 8*len(zeros70)+1, 0) }, "outside"},
		{"select backwards", func(r *Reader) { SelectZero(zeros70, 9, 8, 0) }, "outside"},
		{"unary shift 64", func(r *Reader) { ReadUnaryRun(r, make([]uint64, 1), 64) }, "invalid shift 64"},
		{"unary past end", func(r *Reader) { ReadUnaryRun(r, make([]uint64, 2), 0) }, "past end"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := panics(t, func() { tc.read(NewReader(zeros70, 8*len(zeros70))) })
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("panic %q, want one naming %q", msg, tc.want)
			}
		})
	}
	r := NewReader(zeros70, 8*len(zeros70))
	if _, err := r.TryGamma(); err == nil || r.Remaining() != 8*len(zeros70) {
		t.Fatalf("TryGamma over a 70-zero run: err %v, %d bits left; want an error and no bits consumed", err, r.Remaining())
	}
}

func TestWidth(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := Width(n); got != want {
			t.Errorf("Width(%d)=%d want %d", n, got, want)
		}
	}
}

func TestWidthCoversPorts(t *testing.T) {
	// Any port index p < d must fit in Width(d) bits.
	f := func(d uint16) bool {
		deg := int(d%1000) + 1
		w := Width(deg)
		return deg-1 < 1<<uint(w) || w == 0 && deg == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLenCounting(t *testing.T) {
	var w Writer
	if w.Len() != 0 {
		t.Error("empty writer len")
	}
	w.WriteBits(0, 5)
	w.WriteBits(0, 4)
	if w.Len() != 9 {
		t.Errorf("len %d want 9", w.Len())
	}
	if len(w.Bytes()) != 2 {
		t.Errorf("bytes %d want 2", len(w.Bytes()))
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.WriteBits(0xFF, 8)
	w.WriteBits(0xFF, 8)
	w.Reset()
	if w.Len() != 0 {
		t.Errorf("len after Reset = %d", w.Len())
	}
	// Reused buffer bytes must come back zeroed: stale set bits from the
	// previous window would corrupt ORed-in values.
	w.WriteBits(0, 8)
	if w.Bytes()[0] != 0 {
		t.Errorf("stale bits survived Reset: %08b", w.Bytes()[0])
	}
	w.Reset()
	w.WriteBits(0xA5, 8)
	r := NewReader(w.Bytes(), w.Len())
	if got := r.ReadBits(8); got != 0xA5 {
		t.Errorf("after Reset read %#x want 0xA5", got)
	}
}

func TestAtMatchesReader(t *testing.T) {
	// At(buf, pos, width) must agree with a Reader that seeks to pos by
	// consuming bits, at every offset and width.
	var w Writer
	vals := []uint64{0, 1, 0x2A, 0x155, 0x7FF, 3, 0}
	widths := []int{1, 3, 6, 9, 11, 2, 4}
	for i, v := range vals {
		w.WriteBits(v, widths[i])
	}
	pos := 0
	for i, want := range vals {
		if got := At(w.Bytes(), pos, widths[i]); got != want {
			t.Errorf("At(pos=%d, width=%d) = %#x want %#x", pos, widths[i], got, want)
		}
		pos += widths[i]
	}
	if got := At(w.Bytes(), 0, 0); got != 0 {
		t.Errorf("zero-width At = %d want 0", got)
	}
}

// NewReader returns a reader over the first nbit bits of buf.
func NewReader(buf []byte, nbit int) *Reader { return NewReaderAt(buf, 0, nbit) }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.end - r.pos }
