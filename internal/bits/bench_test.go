package bits

import (
	"math/rand"
	"testing"
)

// BenchmarkCodec prices the codec's kernels a field at a time over one
// stream of 16,384 fields: Elias-gamma codes of compact-window-like
// member-ID deltas (exponential, mean 12, as at n=2048 with k=151), and
// fixed-width fields of 8 bits (a parent window index) and 32 bits (a
// float32 distance). read/at is the random-access read of a 9-bit forest
// parent field at any bit offset.
func BenchmarkCodec(b *testing.B) {
	const fields = 1 << 14
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
