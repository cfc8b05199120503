package eval

import "testing"

// TestSnapshotEquivalence pins the two snapshot encodings against each
// other (the goldens are the oracle for the exact encoding itself). Cases
// with compactExact must produce byte-identical output on the compact
// (bit-packed, float32-distance) encoding — these are the
// exactness-claimed figures: distance-independent state accounting, plus
// every routing figure on an integer-weight topology, where float32
// quantization is lossless. Geometric-topology routing figures are
// deliberately NOT claimed (Euclidean distances quantize, which is why
// exact mode stays the default): there only the compact leg runs, and it
// must complete (no must-deliver panic on quantized distances). Sizes are
// scaled down; the paths exercised are the same ones the full sizes use.
func TestSnapshotEquivalence(t *testing.T) {
	cases := []struct {
		name         string
		short        bool // keep in -short runs
		compactExact bool // output must also be byte-identical on the compact encoding
		run          func() string
	}{
		{"Fig2State", true, true, func() string { return Fig2State(TopoGnm, 192, 1).Format() }},
		{"Fig3Stretch", true, false, func() string { return Fig3Stretch(TopoGeometric, 192, 3, 60).Format() }},
		{"Fig3StretchGnm", true, true, func() string { return Fig3Stretch(TopoGnm, 192, 3, 60).Format() }},
		{"Fig45", true, true, func() string { return Fig45(TopoGnm, 128, 4, 40).Format() }},
		{"Fig6Shortcuts", false, false, func() string {
			return Fig6Shortcuts([]Fig6Spec{
				{Label: "gnm-128", Kind: TopoGnm, N: 128},
				{Label: "geo-128", Kind: TopoGeometric, N: 128},
			}, 5, 40).Format()
		}},
		{"Fig7StateBytes", false, true, func() string { return Fig7StateBytes(256, 6).Format() }},
		{"Fig9Scaling", false, false, func() string { return Fig9Scaling([]int{128, 192}, 8, 40).Format() }},
		{"Fig10ASCongestion", false, true, func() string { return Fig10ASCongestion(192, 9).Format() }},
		{"LandmarkStrategies", false, true, func() string { return LandmarkStrategies(TopoASLike, 192, 15, 40).Format() }},
		{"EstimateError", true, true, func() string { return EstimateError(192, 11, 0.4, 40).Format() }},
	}
	defer SetSnapshotCompact(false)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("short mode: covered by the full run")
			}
			SetSnapshotCompact(true)
			compact := tc.run()
			SetSnapshotCompact(false)
			if !tc.compactExact {
				return
			}
			if exact := tc.run(); compact != exact {
				t.Errorf("output differs between compact and exact snapshot encodings (exactness is claimed for this figure):\n--- compact ---\n%s--- exact ---\n%s", compact, exact)
			}
		})
	}
}
