package landmark

import (
	"math"
	"slices"
	"testing"

	"disco/internal/estimate"
	"disco/internal/names"
)

func TestProbRange(t *testing.T) {
	for _, n := range []float64{1, 2, 4, 100, 1e4, 1e8} {
		p := Prob(n)
		if p <= 0 || p > 1 {
			t.Errorf("Prob(%v)=%v out of (0,1]", n, p)
		}
	}
	if Prob(2) != 1 {
		t.Error("tiny networks should always self-select")
	}
	if Prob(100) >= Prob(10) {
		t.Error("Prob must decrease with n")
	}
}

func TestSelectExpectedCount(t *testing.T) {
	// With n = 4096 names, expect ~sqrt(n log2 n) = sqrt(4096*12) ≈ 222
	// landmarks; allow a wide band (binomial, sd ≈ 15).
	gen := names.NewGenerator(1)
	n := 4096
	lms := SelectPerNode(gen.Names(n), estimate.Exact(n))
	want := math.Sqrt(float64(n) * math.Log2(float64(n)))
	if float64(len(lms)) < want*0.6 || float64(len(lms)) > want*1.4 {
		t.Errorf("got %d landmarks, want around %.0f", len(lms), want)
	}
	// Sorted ascending, unique, in range.
	for i := 1; i < len(lms); i++ {
		if lms[i] <= lms[i-1] {
			t.Fatal("landmarks must be sorted unique")
		}
	}
}

func TestSelectDeterministic(t *testing.T) {
	gen := names.NewGenerator(2)
	ns := gen.Names(500)
	a := SelectPerNode(ns, estimate.Exact(500))
	b := SelectPerNode(ns, estimate.Exact(500))
	if len(a) != len(b) {
		t.Fatal("same input must give same landmarks")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same input must give same landmarks")
		}
	}
}

func TestSelectNeverEmpty(t *testing.T) {
	gen := names.NewGenerator(3)
	for n := 1; n <= 8; n++ {
		lms := SelectPerNode(gen.Names(n), slices.Repeat([]float64{1e12}, n)) // absurd estimate -> tiny p
		if len(lms) == 0 {
			t.Fatalf("n=%d: landmark set must never be empty", n)
		}
	}
}

func TestLandmarkSetsNestAsNGrows(t *testing.T) {
	// Larger n means smaller p, so landmarks at larger n must be a subset
	// of landmarks at smaller n (same names): this is the low-churn
	// property the coin construction provides.
	gen := names.NewGenerator(4)
	ns := gen.Names(2000)
	small := SelectPerNode(ns, slices.Repeat([]float64{1000}, len(ns)))
	big := SelectPerNode(ns, slices.Repeat([]float64{64000}, len(ns)))
	inSmall := map[int32]bool{}
	for _, v := range small {
		inSmall[int32(v)] = true
	}
	for _, v := range big {
		if !inSmall[int32(v)] {
			t.Fatalf("landmark %d at n=64000 not a landmark at n=1000", v)
		}
	}
	if len(big) >= len(small) {
		t.Errorf("landmark count should shrink with n estimate: %d vs %d", len(big), len(small))
	}
}
