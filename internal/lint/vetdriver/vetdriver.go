// Package vetdriver implements the `go vet -vettool` unit-checker
// protocol against the standard library alone — the role
// golang.org/x/tools/go/analysis/unitchecker plays for x/tools
// analyzers.
//
// The protocol (cmd/go/internal/work.(*Builder).vet): the go command
// first invokes the tool with -V=full and expects "<name> version
// <v>" on stdout (the build-cache tool ID); it then invokes the tool
// once per package, in the package directory, with a single argument —
// the path to a JSON vet.cfg file naming the package's Go files and,
// for every dependency, the compiled export-data file the go command
// just built. The tool type-checks from those (no source re-analysis
// of dependencies, no network), runs its analyzers, prints diagnostics
// to stderr and exits nonzero if it found any.
package vetdriver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"

	"disco/internal/lint/analysis"
)

// Config mirrors the fields of cmd/go's vet.cfg that the driver needs;
// unknown fields are ignored by encoding/json.
type Config struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	NonGoFiles  []string
	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool
	GoVersion   string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// Run executes the suite over the package described by cfgPath,
// writing diagnostics to w. It returns the number of diagnostics, or
// an error for protocol/typecheck failures.
func Run(cfgPath string, analyzers []*analysis.Analyzer, w io.Writer) (int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 0, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing %s: %v", cfgPath, err)
	}

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, nil
			}
			return 0, err
		}
		files = append(files, f)
	}

	// Dependencies resolve through the export data the go command
	// compiled for this build: map the source import path through
	// ImportMap, open the PackageFile archive, and let the toolchain's
	// own gc importer decode it.
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	tconf := types.Config{
		Importer:  importer.ForCompiler(fset, cfg.Compiler, lookup),
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(cfg.Compiler, "amd64"),
		Error:     func(error) {}, // collect via returned error; keep going
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, fmt.Errorf("typechecking %s: %v", cfg.ImportPath, err)
	}

	if cfg.VetxOnly {
		// Dependency-only pass: discolint keeps no cross-package facts,
		// so there is nothing to compute or report.
		return 0, nil
	}

	diags := Analyze(fset, files, pkg, info, analyzers)
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return len(diags), nil
}

// Analyze runs the suite plus directive validation over one
// type-checked package and returns the diagnostics sorted by position.
// Besides malformed directives it reports every directive that
// suppressed no diagnostic of the suite.
func Analyze(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	directives := analysis.ParseDirectives(fset, files)
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := analysis.NewPass(a, fset, files, pkg, info, directives)
		if err := a.Run(pass); err != nil {
			diags = append(diags, analysis.Diagnostic{
				Pos:      files[0].Package,
				Message:  fmt.Sprintf("analyzer failed: %v", err),
				Analyzer: a.Name,
			})
			continue
		}
		diags = append(diags, pass.Diagnostics()...)
	}
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, analysis.Diagnostic{
			Pos:      pos,
			Message:  fmt.Sprintf(format, args...),
			Analyzer: "directive",
		})
	}
	directives.Validate(report)
	directives.Unused(report)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags
}
