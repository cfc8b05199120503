package load

import "testing"

// TestLoadMemoizes: loading a path that an earlier package already
// imported returns the package that import registered, so packages
// checked later see one identity for each of its types.
func TestLoadMemoizes(t *testing.T) {
	l := NewLoader("testdata")
	a, err := l.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load("b"); err != nil {
		t.Fatal(err)
	}
	again, err := l.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	if again.Pkg != a.Pkg {
		t.Errorf("second Load of a type-checked it again")
	}
	if _, err := l.Load("c"); err != nil {
		t.Errorf("c, importing a directly and through b: %v", err)
	}
}
