package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnalyzeReportsStaleDirective: of two waivers, the one above a
// clock read seedrand flags is used and silent; the one above a line it
// does not flag is reported as stale.
func TestAnalyzeReportsStaleDirective(t *testing.T) {
	const src = `package p

import "time"

func f() (time.Time, time.Duration) {
	//disco:measured a waived wall-clock read
	now := time.Now()
	//disco:measured stale: this line reads no clock
	d := time.Duration(0)
	return now, d
}
`
	root := t.TempDir()
	for name, data := range map[string]string{"go.mod": "module disco\n", "p/p.go": src} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.Load("disco/p")
	if err != nil {
		t.Fatal(err)
	}
	diags := Analyze(l.Module, p)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want the stale directive only: %v", len(diags), diags)
	}
	if d := diags[0]; p.Fset.Position(d.Pos).Line != 8 || !strings.Contains(d.Message, "suppresses no diagnostic") {
		t.Errorf("got %q at line %d, want the stale directive at line 8", d.Message, p.Fset.Position(d.Pos).Line)
	}
}
