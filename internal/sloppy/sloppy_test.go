package sloppy

import (
	"math"
	"math/rand"
	"testing"

	"disco/internal/estimate"
	"disco/internal/graph"
	"disco/internal/names"
)

func TestK(t *testing.T) {
	if K(1) != 0 || K(4) != 0 {
		t.Error("tiny n must give k=0")
	}
	// n=16384: sqrt(16384/14)=34.2 -> k=5 (32 groups of ~512 ≈ sqrt(n log n)).
	if k := K(16384); k != 5 {
		t.Errorf("K(16384)=%d want 5", k)
	}
	// n=1024: sqrt(1024/10)=10.1 -> k=3 (8 groups of 128).
	if k := K(1024); k != 3 {
		t.Errorf("K(1024)=%d want 3", k)
	}
	// n=192244 (the paper's router map): k=6 per the Table 7 numbers.
	if k := K(192244); k != 6 {
		t.Errorf("K(192244)=%d want 6", k)
	}
	// Monotone non-decreasing over doublings.
	prev := 0
	for n := 4.0; n < 1e9; n *= 2 {
		k := K(n)
		if k < prev {
			t.Fatalf("K must be non-decreasing: K(%v)=%d after %d", n, k, prev)
		}
		prev = k
	}
}

func TestKChangesOnlyOnConstantFactor(t *testing.T) {
	// Consistency (§4.4): within any factor-2 window of n there is at most
	// one change of k.
	for base := 8.0; base < 1e7; base *= 1.5 {
		changes := 0
		prev := K(base)
		for f := 1.0; f <= 2.0; f += 0.01 {
			k := K(base * f)
			if k != prev {
				changes++
				prev = k
			}
		}
		if changes > 1 {
			t.Fatalf("k changed %d times within [%v,%v]", changes, base, 2*base)
		}
	}
}

func TestGroupSizes(t *testing.T) {
	// With n=4096 names and k=K(4096)=2, expect 4 groups of ~1024.
	n := 4096
	gen := names.NewGenerator(8)
	hashes := make([]names.Hash, n)
	for i := range hashes {
		hashes[i] = names.HashOf(gen.Name(i))
	}
	k := K(float64(n))
	sizes := make([]int, 1<<uint(k))
	for _, h := range hashes {
		sizes[GroupID(h, k)]++
	}
	want := float64(n) / float64(len(sizes))
	for id, size := range sizes {
		if got := float64(size); got < want*0.7 || got > want*1.3 {
			t.Errorf("group %d size %v far from expected %v", id, got, want)
		}
	}
}

func TestGroupOfContainsSelf(t *testing.T) {
	gen := names.NewGenerator(9)
	hashes := make([]names.Hash, 100)
	for i := range hashes {
		hashes[i] = names.HashOf(gen.Name(i))
	}
	est := estimate.InjectError(rand.New(rand.NewSource(3)), len(hashes), 0.4)
	v := BuildView(hashes, est)
	for x := range hashes {
		if !v.InGroup(graph.NodeID(x), graph.NodeID(x)) {
			t.Fatalf("node %d missing from own group", x)
		}
	}
}

func TestSplitIsRefinement(t *testing.T) {
	// Groups at k+1 bits must partition groups at k bits (split in half /
	// merge property, §4.4).
	gen := names.NewGenerator(10)
	hashes := make([]names.Hash, 1000)
	for i := range hashes {
		hashes[i] = names.HashOf(gen.Name(i))
	}
	for v, hv := range hashes {
		// Every member of v's (k+1)-group must be in v's k-group.
		for _, hw := range hashes {
			if SameGroup(hv, hw, 4) && !SameGroup(hv, hw, 3) {
				t.Fatalf("refinement violated for node %d", v)
			}
		}
	}
}

func TestViewSpreadUnderBoundedError(t *testing.T) {
	// Estimates within a factor 2 of truth must give k spread <= 1.
	n := 8192
	gen := names.NewGenerator(11)
	hashes := make([]names.Hash, n)
	for i := range hashes {
		hashes[i] = names.HashOf(gen.Name(i))
	}
	rng := rand.New(rand.NewSource(1))
	est := make([]float64, n)
	for i := range est {
		// uniform in [n/2, 2n]
		est[i] = float64(n) * math.Exp2(rng.Float64()*2-1)
	}
	v := BuildView(hashes, est)
	if s := v.MaxKSpread(); s > 1 {
		t.Errorf("k spread %d > 1 under 2x-bounded estimates", s)
	}
}

func TestMutualAndCoreGroup(t *testing.T) {
	n := 512
	gen := names.NewGenerator(12)
	hashes := make([]names.Hash, n)
	for i := range hashes {
		hashes[i] = names.HashOf(gen.Name(i))
	}
	rng := rand.New(rand.NewSource(2))
	est := estimate.InjectError(rng, n, 0.4)
	v := BuildView(hashes, est)
	for x := 0; x < n; x += 37 {
		core := v.CoreGroup(graph.NodeID(x))
		if len(core) == 0 {
			t.Fatalf("core group of %d empty (should contain self)", x)
		}
		selfIn := false
		for _, w := range core {
			if w == graph.NodeID(x) {
				selfIn = true
			}
			// Mutuality is symmetric by construction.
			if !v.Mutual(w, graph.NodeID(x)) {
				t.Fatalf("mutual not symmetric for %d,%d", x, w)
			}
		}
		if !selfIn {
			t.Fatalf("core group of %d misses self", x)
		}
	}
}

func TestSameGroupZeroK(t *testing.T) {
	if !SameGroup(0x1234, 0xFFFF, 0) {
		t.Error("k=0 means one global group")
	}
}
