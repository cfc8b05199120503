package eval

// sumAll ranges over a map in a test file, which maporder skips.
func sumAll(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// probes reaches the exports surface.go leaves to tests.
func probes() int { return Probe() + Fixture() }
