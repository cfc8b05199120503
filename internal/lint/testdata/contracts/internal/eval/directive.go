// //disco: directives: a waiver suppresses only its own check's
// diagnostics, only with a reason, and only under a known name.

package eval

import "time"

func bareWaiver() time.Time {
	// A directive runs to the end of its line, so this line's wants sit
	// in a block comment before it.
	return time.Now() /* // want `^//disco:measured directive needs a reason: //disco:measured <why this site is exempt> \(directive\)$` `time.Now in deterministic package disco/internal/eval` */ //disco:measured
}

func wrongWaiver() time.Time {
	//disco:orderinvariant the mergeorder waiver does not excuse the clock // want `^//disco:orderinvariant directive suppresses no diagnostic`
	return time.Now() // want `time.Now in deterministic package disco/internal/eval`
}

func misspeltWaiver() time.Time {
	//disco:measurd a typo excuses nothing // want `^unknown //disco: directive "measurd"`
	return time.Now() // want `time.Now in deterministic package disco/internal/eval`
}
