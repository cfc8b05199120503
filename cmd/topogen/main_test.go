package main

import "testing"

// TestValidateFlags pins the up-front flag checks: every flag set that
// would make a generator panic is refused, and the smallest size every
// topology runs at is accepted.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		topo string
		n    int
		ok   bool
	}{
		{"gnm", 1024, true},
		{"gnm", 9, true},
		{"geometric", 9, true},
		{"aslike", 9, true},
		{"routerlike", 9, true},
		{"bogus", 1024, false},
		{"", 1024, false},
		{"gnm", 0, false},
		{"gnm", 5, false},
		{"gnm", 8, false},
		{"routerlike", -3, false},
	}
	for _, tc := range cases {
		err := validateFlags(tc.topo, tc.n)
		if tc.ok && err != nil {
			t.Errorf("-topo %q -n %d: unexpected error: %v", tc.topo, tc.n, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("-topo %q -n %d: want an error", tc.topo, tc.n)
		}
	}
}
