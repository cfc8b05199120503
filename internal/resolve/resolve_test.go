package resolve

import (
	"fmt"
	"testing"

	"disco/internal/graph"
	"disco/internal/names"
)

func testName(v graph.NodeID) names.Name {
	return names.Name(fmt.Sprintf("lm-%d", v))
}

func TestOwnerDeterministicAndComplete(t *testing.T) {
	lms := []graph.NodeID{3, 17, 42, 99}
	db := New(lms, testName, 4)
	gen := names.NewGenerator(1)
	for i := 0; i < 500; i++ {
		k := names.HashOf(gen.Name(i))
		o1 := db.OwnerOf(k)
		o2 := db.OwnerOf(k)
		if o1 != o2 {
			t.Fatal("owner must be deterministic")
		}
		found := false
		for _, lm := range lms {
			if lm == o1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("owner %d not a landmark", o1)
		}
	}
}

func TestConsistency(t *testing.T) {
	// Removing one landmark must only move keys owned by that landmark.
	lms := []graph.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	db1 := New(lms, testName, 8)
	db2 := New(lms[:7], testName, 8) // landmark 8 removed
	gen := names.NewGenerator(2)
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		k := names.HashOf(gen.Name(i))
		o1 := db1.OwnerOf(k)
		o2 := db2.OwnerOf(k)
		if o1 == 8 {
			continue // must move, fine
		}
		if o1 != o2 {
			moved++
		} else {
			kept++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys moved that were not owned by the removed landmark", moved)
	}
	if kept == 0 {
		t.Error("no keys at all?")
	}
}

func TestMultipleHashFunctionsReduceImbalance(t *testing.T) {
	lms := make([]graph.NodeID, 40)
	for i := range lms {
		lms[i] = graph.NodeID(i)
	}
	gen := names.NewGenerator(3)
	keys := make([]names.Hash, 20000)
	for i := range keys {
		keys[i] = names.HashOf(gen.Name(i))
	}
	imb1 := New(lms, testName, 1).Imbalance(keys)
	imb16 := New(lms, testName, 16).Imbalance(keys)
	if imb16 >= imb1 {
		t.Errorf("16 hash functions should reduce imbalance: %v vs %v", imb16, imb1)
	}
	if imb16 > 3 {
		t.Errorf("imbalance with 16 vnodes too high: %v", imb16)
	}
}

func TestLoadSumsToKeys(t *testing.T) {
	lms := []graph.NodeID{0, 1, 2}
	db := New(lms, testName, 2)
	gen := names.NewGenerator(4)
	keys := make([]names.Hash, 100)
	for i := range keys {
		keys[i] = names.HashOf(gen.Name(i))
	}
	load := db.Load(len(lms), keys)
	total := 0
	for _, c := range load {
		total += c
	}
	if total != len(keys) {
		t.Errorf("load sums to %d want %d", total, len(keys))
	}
}

func TestLandmarks(t *testing.T) {
	lms := []graph.NodeID{9, 4, 7}
	db := New(lms, testName, 3)
	got := db.Landmarks()
	want := []graph.NodeID{4, 7, 9}
	if len(got) != 3 {
		t.Fatalf("landmarks %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("landmarks %v want %v", got, want)
		}
	}
}

func TestNewPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(nil, testName, 1)
}
