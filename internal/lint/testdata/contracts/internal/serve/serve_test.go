package serve_test

import "disco/internal/snapshot"

// poke writes through sealed storage from an external test package.
func poke(s *snapshot.Snapshot) {
	s.ForestParents(0)[0] = 1 // want `^write through sealed snapshot storage shared by every fork; copy before mutating, or waive with //disco:mutates <reason> \(snapmutate\)$`
}
