package eval_test

import "time"

// elapsed times a test in the external test package. The checks skip test
// files, so the waiver excuses nothing, and the directive check still
// reports it here.
func elapsed(start time.Time) time.Duration {
	//disco:measured test timing // want `^//disco:measured directive suppresses no diagnostic; delete it \(directive\)$`
	return time.Since(start)
}
