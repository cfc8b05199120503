package serve_test

import "disco/internal/snapshot"

// poke writes through sealed storage from an external test package.
func poke(s *snapshot.Snapshot) {
	s.Landmarks()[0] = 1
}
