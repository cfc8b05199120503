package estimate

import (
	"math/rand"
	"testing"
)

func TestInjectErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, frac := range []float64{0.4, 0.6} {
		est := InjectError(rng, 1000, frac)
		if len(est) != 1000 {
			t.Fatal("wrong length")
		}
		for _, e := range est {
			if e < 1000*(1-frac)-1e-9 || e > 1000*(1+frac)+1e-9 {
				t.Fatalf("estimate %v outside ±%v band", e, frac)
			}
		}
		// Should not all be equal.
		if est[0] == est[1] && est[1] == est[2] {
			t.Error("expected random variation")
		}
	}
}

func TestExact(t *testing.T) {
	est := Exact(7)
	for _, e := range est {
		if e != 7 {
			t.Fatal("Exact must return the true n everywhere")
		}
	}
}
