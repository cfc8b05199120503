// maporder: no range in a deterministic package may be over a map.

package eval

import (
	"maps"
	"slices"
)

type set map[int]bool

func rangeMap(m map[int]int) int {
	n := 0
	for range m { // want `range over map in deterministic package disco/internal/eval`
		n++
	}
	return n
}

func rangeNamedMap(s set) []int {
	var out []int
	for k := range s { // want `range over map in deterministic package disco/internal/eval`
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func rangeIterators(m map[int]int) int {
	n := 0
	for k := range maps.Keys(m) { // want `range over maps.Keys iterator`
		n += k
	}
	for v := range maps.Values(m) { // want `range over maps.Values iterator`
		n += v
	}
	for k, v := range maps.All(m) { // want `range over maps.All iterator`
		n += k * v
	}
	return n
}

func waiverIgnored(m map[int]int) int {
	n := 0
	//disco:orderinvariant maporder takes no waiver // want `//disco:orderinvariant directive suppresses no diagnostic`
	for range m { // want `range over map in deterministic package disco/internal/eval`
		n++
	}
	return n
}

// --- allowed: sorted keys, slices, point lookups ---

func sortedKeys(m map[int]int) []int {
	var out []int
	for _, k := range slices.Sorted(maps.Keys(m)) {
		out = append(out, m[k])
	}
	return out
}

func rangeSlice(xs []int, m map[int]int) int {
	n := 0
	for _, x := range xs {
		n += m[x]
	}
	return n
}
