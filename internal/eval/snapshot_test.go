package eval

import (
	"sync"
	"testing"
)

// TestSnapshotEquivalence pins the two snapshot encodings against each
// other (the goldens are the oracle for the exact encoding itself): the
// compact encoding is lossless — BFS levels on unit-weight topologies,
// float64 bits on geometric ones — so every figure must come out
// byte-identical in both regimes, on every topology. Sizes are scaled
// down; the paths exercised are the same ones the full sizes use.
func TestSnapshotEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		short bool // keep in -short runs
		run   func(c Config) string
	}{
		{"Fig2State", true, func(c Config) string { return c.Fig2State(TopoGnm, 192, 1).Format() }},
		{"Fig3Stretch", true, func(c Config) string { return c.Fig3Stretch(TopoGeometric, 192, 3, 60).Format() }},
		{"Fig3StretchGnm", true, func(c Config) string { return c.Fig3Stretch(TopoGnm, 192, 3, 60).Format() }},
		{"Fig45", true, func(c Config) string { return c.Fig45(TopoGnm, 128, 4, 40).Format() }},
		{"Fig6Shortcuts", false, func(c Config) string {
			return c.Fig6Shortcuts([]Fig6Spec{
				{Label: "gnm-128", Kind: TopoGnm, N: 128},
				{Label: "geo-128", Kind: TopoGeometric, N: 128},
			}, 5, 40).Format()
		}},
		{"Fig7StateBytes", false, func(c Config) string { return c.Fig7StateBytes(256, 6).Format() }},
		{"Fig9Scaling", false, func(c Config) string { return c.Fig9Scaling([]int{128, 192}, 8, 40).Format() }},
		{"Fig10ASCongestion", false, func(c Config) string { return c.Fig10ASCongestion(192, 9).Format() }},
		{"LandmarkStrategies", false, func(c Config) string { return c.LandmarkStrategies(TopoASLike, 192, 15, 40).Format() }},
		{"EstimateError", true, func(c Config) string { return c.EstimateError(192, 11, 0.4, 40).Format() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("short mode: covered by the full run")
			}
			if compact, exact := tc.run(Config{Compact: true}), tc.run(Config{}); compact != exact {
				t.Errorf("output differs between compact and exact snapshot encodings:\n--- compact ---\n%s--- exact ---\n%s", compact, exact)
			}
		})
	}
}

// TestRegimesRunConcurrently pins the contract that the storage regime is
// a value, not process state: the same exactness-claimed routing figure
// run in the exact and the compact regime at once, from two goroutines,
// must equal each regime's sequential run — and, exactness being claimed
// on the unit-weight topology, each other. Under -race this is also the
// check that nothing regime-dependent is shared between the two.
func TestRegimesRunConcurrently(t *testing.T) {
	run := func(c Config) string { return c.Fig3Stretch(TopoGnm, 192, 3, 60).Format() }
	regimes := []Config{{}, {Compact: true}}
	var sequential, concurrent [2]string
	for i, c := range regimes {
		sequential[i] = run(c)
	}
	var wg sync.WaitGroup
	for i, c := range regimes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = run(c)
		}()
	}
	wg.Wait()
	for i, c := range regimes {
		if concurrent[i] != sequential[i] {
			t.Errorf("%+v: concurrent run differs from the sequential one:\n--- concurrent ---\n%s--- sequential ---\n%s", c, concurrent[i], sequential[i])
		}
	}
	if concurrent[0] != concurrent[1] {
		t.Errorf("exact and compact outputs differ on a unit-weight topology:\n--- exact ---\n%s--- compact ---\n%s", concurrent[0], concurrent[1])
	}
}
