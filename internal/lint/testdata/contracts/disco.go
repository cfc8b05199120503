// Package disco is the module's root package, held to the contracts
// like every package outside internal/lint.
package disco

// Keys ranges over a map.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want `range over map in deterministic package disco:`
		out = append(out, k)
	}
	return out
}
