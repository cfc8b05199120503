package lint

import (
	"errors"
	"fmt"
	"go/build"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestContracts holds the whole module to the contracts: the checks and
// the directive checks run over every package, and fail on any
// diagnostic.
func TestContracts(t *testing.T) {
	m, err := loadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := contractViolations(m)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("checked %d package variants", len(m.variants))
	for _, d := range diags {
		t.Error(d)
	}
}

// TestNoTestOnlySurface holds the module's library packages to the
// surface contract (surface.go): every export under internal/ has a
// non-test referrer in the module or in the benchmark, disco/bench, a
// nested module the walk skips and this test loads as a caller.
func TestNoTestOnlySurface(t *testing.T) {
	m, err := loadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := surfaceViolations(m, m.loader.Module+"/bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestContractsNegativeControl runs the check TestContracts runs over
// the module under testdata/contracts, whose packages sit at the real
// module's paths. Every diagnostic it must report is spelled in the
// source as a want comment on the line it is reported at:
//
//	for k := range m { // want `range over map`
//
// one quoted regexp ("..." or `...`) per diagnostic, matched against
// "message (check)". "// want " may appear anywhere in a comment, so a
// diagnostic at a //disco: directive carries its want in the directive's
// text. Every want must match a diagnostic, and every diagnostic a want.
// The surface check runs with them, over the module's own packages.
func TestContractsNegativeControl(t *testing.T) {
	checkWants(t)
}

// checkWants runs TestContractsNegativeControl's match over the
// testdata/contracts files named (slash-separated, relative to the
// module root), or over every file when none is named.
func checkWants(t *testing.T, files ...string) {
	t.Helper()
	root := filepath.Join("testdata", "contracts")
	for _, f := range files {
		if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(f))); err != nil {
			t.Fatal(err)
		}
	}
	in := func(file string) bool { return len(files) == 0 || slices.Contains(files, file) }
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := contractViolations(m)
	if err != nil {
		t.Fatal(err)
	}
	surface, err := surfaceViolations(m)
	if err != nil {
		t.Fatal(err)
	}
	diags = append(diags, surface...)
	diags = slices.DeleteFunc(diags, func(d violation) bool { return !in(d.file) })
	wants, err := collectWants(root)
	if err != nil {
		t.Fatal(err)
	}
	wants = slices.DeleteFunc(wants, func(w want) bool { return !in(w.file) })
	t.Logf("%d expected diagnostics", len(wants))
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && d.file == w.file && d.line == w.line && w.re.MatchString(d.msg) {
				matched[i], found = true, true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestLoadMemoizes: loading a path that an earlier package already
// imported returns the package that import registered, so packages
// checked later see one identity for each of its types.
func TestLoadMemoizes(t *testing.T) {
	l, err := NewModuleLoader(filepath.Join("testdata", "contracts"))
	if err != nil {
		t.Fatal(err)
	}
	graph, err := l.Load("disco/internal/graph")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load("disco/internal/snapshot"); err != nil {
		t.Fatal(err)
	}
	again, err := l.Load("disco/internal/graph")
	if err != nil {
		t.Fatal(err)
	}
	if again.Pkg != graph.Pkg {
		t.Errorf("second Load of graph type-checked it again")
	}
	if _, err := l.Load("disco/internal/serve"); err != nil {
		t.Errorf("serve, importing graph directly and through snapshot: %v", err)
	}
}

// A violation is one diagnostic, at a file relative to the module root.
type violation struct {
	file      string
	line, col int
	msg       string // "message (check)"
}

func (v violation) String() string { return fmt.Sprintf("%s:%d:%d: %s", v.file, v.line, v.col, v.msg) }

// A module is every package variant of one module, type-checked once
// and shared by the tests that check it.
type module struct {
	root   string
	loader *Loader
	// variants are every package, its in-package test variant (package
	// files plus _test.go files in the same package) and its external
	// _test package, in walk order, the way go vet sees the module.
	variants []*Package
	// libs are the non-test packages, in walk order.
	libs []*Package
}

// modules memoizes loadModule by root.
var modules = make(map[string]*module)

// loadModule loads the module rooted at root, or returns the one loaded
// before. Directories named testdata or starting with "." or "_", and
// nested modules, are not part of the module.
func loadModule(root string) (*module, error) {
	if m, ok := modules[root]; ok {
		return m, nil
	}
	l, err := NewModuleLoader(root)
	if err != nil {
		return nil, err
	}
	m := &module{root: root, loader: l}
	add := func(p *Package, err error) error {
		if err == nil {
			m.variants = append(m.variants, p)
		}
		return err
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
			p, err := l.Load(path)
			if err != nil {
				return err
			}
			m.libs = append(m.libs, p)
			m.variants = append(m.variants, p)
		}
		if len(bp.TestGoFiles) > 0 {
			if err := add(l.Check(path, dir, slices.Concat(bp.GoFiles, bp.TestGoFiles))); err != nil {
				return err
			}
		}
		if len(bp.XTestGoFiles) > 0 {
			if err := add(l.Check(path+"_test", dir, bp.XTestGoFiles)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	modules[root] = m
	return m, nil
}

// contractViolations runs Analyze over every variant of m. It returns
// the diagnostics in walk order, each once (a package and its test
// variant share files).
func contractViolations(m *module) ([]violation, error) {
	var diags []violation
	seen := make(map[violation]bool)
	for _, p := range m.variants {
		vs, err := m.violations(p.Fset, Analyze(m.loader.Module, p))
		if err != nil {
			return nil, err
		}
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				diags = append(diags, v)
			}
		}
	}
	return diags, nil
}

// surfaceViolations runs testOnlySurface over m's packages under
// internal/, internal/lint aside, with every non-test package of m and
// the packages at the import paths in callers as referrers.
func surfaceViolations(m *module, callers ...string) ([]violation, error) {
	internal := m.loader.Module + "/internal/"
	var libs []*Package
	for _, p := range m.libs {
		if strings.HasPrefix(p.Path+"/", internal) && !strings.HasPrefix(p.Path+"/", internal+"lint/") {
			libs = append(libs, p)
		}
	}
	refs := slices.Clone(m.libs)
	for _, path := range callers {
		p, err := m.loader.Load(path)
		if err != nil {
			return nil, err
		}
		refs = append(refs, p)
	}
	imported := slices.Collect(maps.Values(m.loader.std))
	for _, p := range refs {
		imported = append(imported, p.Pkg)
	}
	return m.violations(m.loader.Fset, testOnlySurface(libs, refs, imported))
}

// violations converts diagnostics to violations at paths relative to
// m's root.
func (m *module) violations(fset *token.FileSet, diags []Diagnostic) ([]violation, error) {
	out := make([]violation, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		file, err := filepath.Rel(m.root, pos.Filename)
		if err != nil {
			return nil, err
		}
		out = append(out, violation{filepath.ToSlash(file), pos.Line, pos.Column, fmt.Sprintf("%s (%s)", d.Message, d.Check)})
	}
	return out, nil
}

// A want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants reads the want comments of every .go file under root, in
// walk order.
func collectWants(root string) ([]want, error) {
	var wants []want
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		file, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, text := range strings.Split(string(data), "\n") {
			_, payload, ok := strings.Cut(text, "// want ")
			if !ok {
				continue
			}
			res, err := parseWant(payload)
			if err != nil {
				return fmt.Errorf("%s:%d: %v", path, i+1, err)
			}
			for _, re := range res {
				wants = append(wants, want{filepath.ToSlash(file), i + 1, re})
			}
		}
		return nil
	})
	return wants, err
}

// parseWant returns the quoted regexps at the start of a want payload;
// the first unquoted text (the end of a block comment) ends the list.
func parseWant(s string) ([]*regexp.Regexp, error) {
	var res []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" || (s[0] != '"' && s[0] != '`') {
			break
		}
		end := strings.IndexByte(s[1:], s[0])
		if end < 0 {
			return nil, fmt.Errorf("unterminated regexp in %q", s)
		}
		re, err := regexp.Compile(s[1 : 1+end])
		if err != nil {
			return nil, err
		}
		res = append(res, re)
		s = s[2+end:]
	}
	if len(res) == 0 {
		return nil, errors.New("want comment holds no quoted regexp")
	}
	return res, nil
}
