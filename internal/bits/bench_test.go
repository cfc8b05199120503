package bits

import (
	"math/rand"
	"testing"
)

// BenchmarkCodec prices the codec's kernels a field at a time over one
// stream of 16,384 fields: Elias-gamma codes of compact-window-like
// member-ID deltas (exponential, mean 12, as at n=2048 with k=151), and
// fixed-width fields of 8 bits (a parent window index) and 32 bits (a
// wide fixed field). read/at is the random-access read of a 9-bit forest
// parent field at any bit offset. run/gamma and run/fixed8 read the gamma
// and 8-bit streams with the run kernels, a window's column of 128 fields
// to a call — the gamma codes summed as member-ID deltas.
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
		if c.width == 32 {
			continue
		}
		b.Run("run/"+c.name, func(b *testing.B) {
			col := make([]uint32, runFields)
			var sum uint32
			for i := 0; i < b.N; i++ {
				r := NewReader(stream, nbit)
				for range fields / runFields {
					if c.width == 0 {
						ReadGammaRun(r, col, 0)
					} else {
						ReadRun(r, col, c.width)
					}
					sum += col[runFields-1]
				}
			}
			sink = uint64(sum)
			perField(b)
		})
	}
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
