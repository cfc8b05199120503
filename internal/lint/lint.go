// Package lint assembles discolint, the repo's contract-enforcement
// analyzer suite. Each analyzer turns one prose contract from the
// ROADMAP into a static check:
//
//	maporder   — bit-identical output: no raw map iteration in
//	             deterministic packages (internal/parallel contract)
//	seedrand   — bit-identical output: all entropy flows from explicit
//	             seeds; wall clock only on //disco:measured paths
//	snapmutate — snapshot immutability: what Fork() shares is never
//	             written outside its defining package
//	mergeorder — task-ordered merges: pool closures write only
//	             task-indexed storage
//
// The driver half lives in internal/lint/vetdriver (the go vet
// -vettool protocol) and cmd/discolint (the binary).
package lint

import (
	"disco/internal/lint/analysis"
	"disco/internal/lint/maporder"
	"disco/internal/lint/mergeorder"
	"disco/internal/lint/seedrand"
	"disco/internal/lint/snapmutate"
)

// Analyzers returns the full discolint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maporder.Analyzer,
		seedrand.Analyzer,
		snapmutate.Analyzer,
		mergeorder.Analyzer,
	}
}
