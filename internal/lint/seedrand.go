// seedrand flags nondeterministic entropy sources in deterministic
// packages: the schedule- and process-dependent global math/rand
// stream, rand sources constructed from non-seed expressions, and
// wall-clock reads outside measurement-annotated code.
//
// The contract: every random draw in the harness flows from an
// explicit seed (the -seed flag, or parallel.TaskSeed's per-task
// derivation), so any figure reruns bit-identically. Three ways to
// break it, one check each:
//
//   - rand.Intn and friends on the package-level source: randomly
//     seeded per process since Go 1.20, and shared — draw order then
//     depends on goroutine schedule. Use rand.New(rand.NewSource(seed))
//     or parallel.TaskRNG.
//   - rand.NewSource(expr) (and v2's NewPCG/NewChaCha8) where expr
//     neither is a constant nor mentions a seed: the classic
//     time.Now().UnixNano() seeding that makes every run unique.
//     The check is lexical — any identifier or callee containing
//     "seed" (TaskSeed, cfg.Seed, seed+1) passes.
//   - time.Now / time.Since: wall clock is legal only on measurement
//     paths whose values never reach deterministic output (the
//     "measured:" qps/latency lines of eval/servestorm.go). Those
//     sites carry //disco:measured <reason>.
//
// Test files are skipped.

package lint

import (
	"go/ast"
	"strings"
)

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that draw from the shared, randomly-seeded source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint": true, "Uint32": true, "Uint32N": true, "Uint64": true,
	"Uint64N": true, "UintN": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true,
}

// sourceCtors are the rand constructors whose every argument must be
// seed-derived.
var sourceCtors = map[string]bool{
	"NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

func seedRand(p *pass) {
	for _, f := range p.libraryFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch pkg, name := qualified(p, call.Fun); pkg {
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[name] {
					p.report("seedrand", call.Pos(),
						"rand.%s draws from the process-global stream (randomly seeded, schedule-shared); use rand.New(rand.NewSource(seed)) or parallel.TaskRNG", name)
				} else if sourceCtors[name] && !seedDerived(p, call.Args) {
					p.report("seedrand", call.Pos(),
						"rand.%s argument is not derived from a seed; thread the experiment seed (or parallel.TaskSeed) through, or waive with //disco:measured <reason>", name)
				}
			case "time":
				if name == "Now" || name == "Since" {
					p.report("seedrand", call.Pos(),
						"time.%s in deterministic package %s; wall clock is only legal on measurement paths annotated //disco:measured <reason>", name, p.pkg.Path())
				}
			}
			return true
		})
	}
}

// seedDerived reports whether the argument list plausibly derives from
// an explicit seed: every argument either is a compile-time constant
// or mentions an identifier / callee whose name contains "seed".
func seedDerived(p *pass, args []ast.Expr) bool {
	if len(args) == 0 {
		return false
	}
	for _, a := range args {
		if tv, ok := p.info.Types[a]; ok && tv.Value != nil {
			continue
		}
		if !mentions(a, func(id *ast.Ident) bool { return strings.Contains(strings.ToLower(id.Name), "seed") }) {
			return false
		}
	}
	return true
}

// mentions reports whether any identifier in e satisfies match.
func mentions(e ast.Expr, match func(*ast.Ident) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && match(id) {
			found = true
		}
		return !found
	})
	return found
}
