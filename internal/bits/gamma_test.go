package bits

import (
	"encoding/binary"
	"fmt"
	mbits "math/bits"
)

// The program writes Elias-gamma codes (an address's hop count, §4.2) and
// measures them, but never reads one back, so the gamma decoder lives with
// the tests: the round trips and the reference fuzz check WriteGamma
// through it.

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
