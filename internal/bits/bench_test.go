package bits

import (
	"math/rand"
	"testing"
)

// BenchmarkCodec prices the codec's kernels a field at a time over one
// stream of 16,384 fields: Elias-gamma codes (exponential, mean 12, as the
// address codec's hop counts are small), and fixed-width fields of 8 bits
// (a parent window index) and 32 bits (a wide fixed field). read/at is the
// random-access read of a 9-bit forest parent field at any bit offset.
// run/fixed8 reads the 8-bit stream with the run kernel, a window's column
// of 128 fields to a call. run/unary and select/zero price the reads of
// an Elias–Fano high-bits array.
func BenchmarkCodec(b *testing.B) {
	const fields, runFields = 1 << 14, 128
	rng := rand.New(rand.NewSource(1))
	gammas := make([]uint64, fields)
	fixed := make([]uint64, fields)
	for i := range gammas {
		gammas[i] = uint64(rng.ExpFloat64()*12) + 1
		fixed[i] = rng.Uint64()
	}
	perField := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fields), "ns/field")
	}
	var stream []byte
	for _, c := range []struct {
		name  string
		width int // 0: gamma
	}{{"gamma", 0}, {"fixed8", 8}, {"fixed32", 32}} {
		write := func(w *Writer) {
			for i := range fields {
				if c.width == 0 {
					w.WriteGamma(gammas[i])
				} else {
					w.WriteBits(fixed[i], c.width)
				}
			}
		}
		var w Writer
		write(&w)
		stream = append([]byte(nil), w.Bytes()...)
		nbit := w.Len()
		b.Run("write/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.Reset()
				write(&w)
			}
			perField(b)
		})
		b.Run("read/"+c.name, func(b *testing.B) {
			var sum uint64
			for i := 0; i < b.N; i++ {
				r := NewReader(stream, nbit)
				for range fields {
					if c.width == 0 {
						sum += r.ReadGamma()
					} else {
						sum += r.ReadBits(c.width)
					}
				}
			}
			sink = sum
			perField(b)
		})
		if c.width != 8 {
			continue
		}
		b.Run("run/"+c.name, func(b *testing.B) {
			col := make([]uint32, runFields)
			var sum uint32
			for i := 0; i < b.N; i++ {
				r := NewReader(stream, nbit)
				for range fields / runFields {
					ReadRun(r, col, c.width)
					sum += col[runFields-1]
				}
			}
			sink = uint64(sum)
			perField(b)
		})
	}
	// An Elias–Fano high-bits array of 16,384 bits, ones as dense as in a
	// router-like n=2048 window's (151 members, 256 buckets). run/unary
	// reads its buckets a window's column of 128 codes to a call;
	// select/zero finds the end of a random bucket of a 407-bit window.
	var hw Writer
	ones := 0
	for range fields {
		bit := uint64(0)
		if rng.Intn(407) < 151 {
			bit = 1
			ones++
		}
		hw.WriteBits(bit, 1)
	}
	high := append([]byte(nil), hw.Bytes()...)
	b.Run("run/unary", func(b *testing.B) {
		col := make([]uint32, runFields)
		var sum uint32
		for i := 0; i < b.N; i++ {
			r := NewReader(high, fields)
			for left := ones; left > 0; left -= runFields {
				run := col[:min(runFields, left)]
				clear(run)
				ReadUnaryRun(r, run, 0)
				sum += run[len(run)-1]
			}
		}
		sink = uint64(sum)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ones), "ns/field")
	})
	ranks := make([]int, fields)
	for i := range ranks {
		ranks[i] = rng.Intn(256)
	}
	b.Run("select/zero", func(b *testing.B) {
		var sum int
		for i := 0; i < b.N; i++ {
			for j, r := range ranks {
				from := 407 * (j % (fields / 407))
				sum += SelectZero(high, from, from+407, r)
			}
		}
		sink = uint64(sum)
		perField(b)
	})
	positions := make([]int, fields)
	for i := range positions {
		positions[i] = rng.Intn(8*len(stream) - 9)
	}
	b.Run("read/at", func(b *testing.B) {
		var sum uint64
		for i := 0; i < b.N; i++ {
			for _, pos := range positions {
				sum += At(stream, pos, 9)
			}
		}
		sink = sum
		perField(b)
	})
}

// sink keeps the benchmarked reads live.
var sink uint64
