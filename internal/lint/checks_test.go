package lint

import "testing"

// Each check's own cases in testdata/contracts, held to their wants by
// the harness TestContractsNegativeControl runs over the whole module.

func TestMapOrder(t *testing.T) {
	checkWants(t, "internal/eval/maporder.go")
}

func TestSeedRand(t *testing.T) {
	checkWants(t, "internal/eval/seedrand.go")
}

func TestMergeOrder(t *testing.T) {
	checkWants(t, "internal/eval/mergeorder.go")
}

// TestNoTestOnlySurfaceNegativeControl: of surface.go's plants, a
// test-only export, a stale fixture waiver and a reasonless one are
// reported, and a fixture waiver with a reason suppresses its export.
func TestNoTestOnlySurfaceNegativeControl(t *testing.T) {
	checkWants(t, "internal/eval/surface.go")
}

// TestDeterministic: every package of the module is held to maporder
// and seedrand except those under internal/lint. The root package's map
// loop is flagged; internal/lint/other's loop, global rand draw and
// clock read are not.
func TestDeterministic(t *testing.T) {
	for path, want := range map[string]bool{
		"disco":                     true,
		"disco/internal/eval":       true,
		"disco/internal/serve":      true,
		"disco/cmd/discosim":        true,
		"disco/examples/sensornet":  true,
		"disco/internal/lint":       false,
		"disco/internal/lint/other": false,
		"disco/internal/linter":     true,
		"discovery/internal/eval":   false,
		"other":                     false,
	} {
		if got := deterministic("disco", path); got != want {
			t.Errorf("deterministic(%q) = %v, want %v", path, got, want)
		}
	}
	checkWants(t, "disco.go", "internal/lint/other/other.go")
}
