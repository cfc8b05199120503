package eval

import (
	"slices"
	"testing"
)

// TestSweepSizesMergesN: -n joins a size sweep's list in ascending order and
// never twice. fig8 used to append it (-n 256 simulated 256 a second time and
// printed its row after the extrapolated 1024 row; an -n between two sizes
// landed out of order in the table the extrapolation walks) and fig9 ignored
// it.
func TestSweepSizesMergesN(t *testing.T) {
	fig8 := []int{128, 256, 512, 1024}
	fig9 := []int{1024, 2048, 4096, 8192}
	for _, tc := range []struct {
		name  string
		sizes []int
		n     int
		want  []int
	}{
		{"fig8 default", fig8, 0, fig8},
		{"fig8 -n an existing size", fig8, 256, fig8},
		{"fig8 -n the last size", fig8, 1024, fig8},
		{"fig8 -n between two sizes", fig8, 300, []int{128, 256, 300, 512, 1024}},
		{"fig8 -n below every size", fig8, 64, []int{64, 128, 256, 512, 1024}},
		{"fig9 default", fig9, 0, fig9},
		{"fig9 -n between two sizes", fig9, 3000, []int{1024, 2048, 3000, 4096, 8192}},
		{"fig9 -n an existing size", fig9, 2048, fig9},
		{"fig9 -n above every size", fig9, 16384, []int{1024, 2048, 4096, 8192, 16384}},
	} {
		if got := (Options{N: tc.n}).sweepSizes(slices.Clone(tc.sizes)...); !slices.Equal(got, tc.want) {
			t.Errorf("%s: sizes %v, want %v", tc.name, got, tc.want)
		}
	}
}
