package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 5, 4})
	if c.N() != 5 {
		t.Fatalf("N=%d", c.N())
	}
	if c.Mean() != 3 {
		t.Errorf("mean %v want 3", c.Mean())
	}
	if c.Quantile(0) != 1 || c.Max() != 5 {
		t.Errorf("min/max %v/%v", c.Quantile(0), c.Max())
	}
	if q := c.Quantile(0.5); q != 3 {
		t.Errorf("median %v want 3", q)
	}
	if q := c.Quantile(1); q != 5 {
		t.Errorf("q100 %v want 5", q)
	}
	if q := c.Quantile(0); q != 1 {
		t.Errorf("q0 %v want 1", q)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.Mean() != 0 || c.Max() != 0 || c.Quantile(0.5) != 0 || c.N() != 0 {
		t.Error("empty CDF should report zeros")
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{2, 1}
	c := NewCDF(in)
	in[0] = 99
	if c.Max() != 2 {
		t.Error("CDF must copy its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		c := NewCDF(vals)
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		return c.Quantile(pa) <= c.Quantile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// Single sample: every quantile is that sample.
	one := NewCDF([]float64{42})
	for _, p := range []float64{0, 0.25, 0.5, 1} {
		if q := one.Quantile(p); q != 42 {
			t.Errorf("Quantile(%v)=%v want 42", p, q)
		}
	}
	// Out-of-range p clamps to min/max.
	c := NewCDF([]float64{1, 2, 3, 4})
	if q := c.Quantile(-0.5); q != 1 {
		t.Errorf("Quantile(-0.5)=%v want 1", q)
	}
	if q := c.Quantile(1.5); q != 4 {
		t.Errorf("Quantile(1.5)=%v want 4", q)
	}
	// Nearest-rank boundaries: p just above i/n must step to the next rank.
	if q := c.Quantile(0.5); q != 2 {
		t.Errorf("Quantile(0.5)=%v want 2", q)
	}
	if q := c.Quantile(0.500001); q != 3 {
		t.Errorf("Quantile(0.500001)=%v want 3", q)
	}
}

func TestSamplePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := SamplePairs(rng, 50, 200)
	if len(ps) != 200 {
		t.Fatalf("len %d", len(ps))
	}
	for _, p := range ps {
		if p.Src == p.Dst {
			t.Fatal("pair endpoints must differ")
		}
		if p.Src < 0 || p.Src >= 50 || p.Dst < 0 || p.Dst >= 50 {
			t.Fatal("pair out of range")
		}
	}
}

func TestStretch(t *testing.T) {
	if s := Stretch(6, 2); s != 3 {
		t.Errorf("stretch %v want 3", s)
	}
	if s := Stretch(2, 2); s != 1 {
		t.Errorf("stretch %v want 1", s)
	}
	if s := Stretch(0, 0); s != 1 {
		t.Errorf("stretch %v want 1", s)
	}
	if s := Stretch(1, 0); !math.IsInf(s, 1) {
		t.Errorf("stretch %v want +Inf", s)
	}
	// Tiny float noise below 1 is clamped.
	if s := Stretch(2-1e-12, 2); s != 1 {
		t.Errorf("stretch %v want 1", s)
	}
}

// TestSamplePairsPanicsBelowTwoNodes: a one-node graph has no pair with
// distinct endpoints, so asking for one must panic naming n, not loop.
func TestSamplePairsPanicsBelowTwoNodes(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "n=1") {
			t.Fatalf("panic %q, want one naming n=1", msg)
		}
	}()
	SamplePairs(rand.New(rand.NewSource(1)), 1, 1)
}

func TestStretchPanicsOnShorterThanShortest(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Stretch(1, 2)
}

func TestCongestion(t *testing.T) {
	c := NewCongestion(4)
	c.AddEdgeUse(0)
	c.AddEdgeUse(0)
	c.AddEdgeUse(3)
	cdf := c.CDF()
	if cdf.N() != 4 {
		t.Fatalf("N=%d", cdf.N())
	}
	if cdf.Max() != 2 {
		t.Errorf("max %v want 2", cdf.Max())
	}
	if got := c.counts[0]; got != 2 {
		t.Errorf("counts[0]=%d", got)
	}
}

func TestFormatSeries(t *testing.T) {
	out := FormatSeries("title", []string{"a"}, []*CDF{NewCDF([]float64{1, 2})})
	if out == "" || len(out) < 10 {
		t.Error("FormatSeries should produce a table")
	}
}
