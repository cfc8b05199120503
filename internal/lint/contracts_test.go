package lint

import (
	"errors"
	"fmt"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"disco/internal/lint/load"
)

// TestContracts holds the whole module to the contracts: the suite and
// the directive checks run over every package, and fail on any
// diagnostic.
func TestContracts(t *testing.T) {
	diags, variants, err := contractViolations(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("checked %d package variants", variants)
	for _, d := range diags {
		t.Error(d)
	}
}

// TestContractsNegativeControl: a module with one planted violation of
// each kind reports exactly those, so TestContracts sees real code.
func TestContractsNegativeControl(t *testing.T) {
	got, _, err := contractViolations(filepath.Join("testdata", "contracts"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/eval/eval.go:14:2: range over map in deterministic package disco/internal/eval: iteration order is random; range over a slice, or over slices.Sorted(maps.Keys(m)) (maporder)",
		"internal/eval/eval.go:22:9: time.Now in deterministic package disco/internal/eval; wall clock is only legal on measurement paths annotated //disco:measured <reason> (seedrand)",
		"internal/eval/eval.go:29:7: write to captured variable from a parallel task closure is ordered by the worker schedule; write task-indexed storage (out[task] = ...) and merge in task order, or waive with //disco:orderinvariant <reason> (mergeorder)",
		"internal/eval/eval.go:36:2: //disco:measured directive suppresses no diagnostic; delete it (directive)",
		"internal/eval/eval.go:42:2: unknown //disco: directive \"sorted\" (known: measured, mutates, orderinvariant) (directive)",
		"internal/serve/serve_test.go:7:19: write through sealed snapshot storage shared by every fork; copy before mutating, or waive with //disco:mutates <reason> (snapmutate)",
	}
	if !slices.Equal(got, want) {
		t.Errorf("got diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// contractViolations runs Analyze with the full suite over the module
// rooted at root, the way `go vet` sees it: every package, its
// in-package test variant (package files plus _test.go files in the
// same package) and its external _test package. Directories named
// testdata or starting with "." or "_", and nested modules, are not
// part of the module. It returns the diagnostics as
// "file:line:col: message (analyzer)", file relative to root, each
// once (a package and its test variant share files), and the number of
// variants checked.
func contractViolations(root string) ([]string, int, error) {
	l, err := load.NewModuleLoader(root)
	if err != nil {
		return nil, 0, err
	}
	var diags []string
	seen := make(map[string]bool)
	variants := 0
	check := func(p *load.Package, err error) error {
		if err != nil {
			return err
		}
		variants++
		for _, d := range Analyze(p.Fset, p.Files, p.Pkg, p.Info, Analyzers()) {
			pos := p.Fset.Position(d.Pos)
			file, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				return err
			}
			s := fmt.Sprintf("%s:%d:%d: %s (%s)", filepath.ToSlash(file), pos.Line, pos.Column, d.Message, d.Analyzer)
			if !seen[s] {
				seen[s] = true
				diags = append(diags, s)
			}
		}
		return nil
	}
	err = filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != root {
			name := e.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := l.Module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if len(bp.GoFiles) > 0 {
			if err := check(l.Load(path)); err != nil {
				return err
			}
		}
		if len(bp.TestGoFiles) > 0 {
			if err := check(l.Check(path, dir, slices.Concat(bp.GoFiles, bp.TestGoFiles))); err != nil {
				return err
			}
		}
		if len(bp.XTestGoFiles) > 0 {
			if err := check(l.Check(path+"_test", dir, bp.XTestGoFiles)); err != nil {
				return err
			}
		}
		return nil
	})
	return diags, variants, err
}
