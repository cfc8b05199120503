// The surface contract: every export of a library package has a non-test
// referrer, or a //disco:fixture waiver that says why tests alone use it.

package eval

// Probe is reached only from eval_test.go.
func Probe() int { return 1 } // want `^exported func Probe has no non-test referrer in the module; delete it, move it into a _test\.go file, or mark a cross-package test fixture //disco:fixture <reason> \(surface\)$`

// Fixture is reached only from eval_test.go, and its waiver says why.
//
//disco:fixture the package's tests build on it
func Fixture() int { return 2 }

// Shipped has a non-test caller, so its waiver is stale.
func Shipped() int { return 3 } /* // want `^//disco:fixture directive suppresses no diagnostic; delete it \(directive\)$` */ //disco:fixture stale: shipping calls it

// Bare has a non-test caller too, and a waiver with no reason.
func Bare() int { return 4 } /* // want `^//disco:fixture directive needs a reason: //disco:fixture <why this site is exempt> \(directive\)$` */ //disco:fixture

func shipping() int { return Shipped() + Bare() }
