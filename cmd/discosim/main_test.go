package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"disco/internal/eval"
)

// TestDocListsEveryExperiment keeps the package doc comment's
// "Experiments:" sentence in sync with eval.Experiments — the table
// is the single source of truth (it drives -list and dispatch), and the
// doc comment has silently rotted before when experiments were added.
func TestDocListsEveryExperiment(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)// Experiments: (.*?)\.\n`).FindSubmatch(src)
	if m == nil {
		t.Fatal("main.go doc comment has no \"// Experiments: ...\" sentence")
	}
	listed := strings.Fields(strings.ReplaceAll(string(m[1]), "//", ""))
	inDoc := make(map[string]bool, len(listed))
	for _, name := range listed {
		inDoc[name] = true
	}
	for _, e := range eval.Experiments {
		if !inDoc[e.Name] {
			t.Errorf("experiment %q is registered but missing from the doc comment's Experiments list", e.Name)
		}
		delete(inDoc, e.Name)
	}
	for name := range inDoc {
		t.Errorf("doc comment lists %q, which is not in the experiments table", name)
	}
}

// TestValidateFlags pins the up-front CLI validation: garbage sizes and
// pair counts must be rejected at flag-parse time with a clear message
// instead of failing deep inside an experiment.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name                             string
		n                                int
		seed                             int64
		pairs, events, queriers, workers int
		ok                               bool
	}{
		{"defaults", 0, 1, 500, 0, 0, 0, true},
		{"explicit", 16384, 7, 100, 32, 8, 8, true},
		{"negative n", -1, 1, 500, 0, 0, 0, false},
		{"zero pairs", 0, 1, 0, 0, 0, 0, false},
		{"negative pairs", 0, 1, -5, 0, 0, 0, false},
		{"negative seed", 0, -1, 500, 0, 0, 0, false},
		{"negative events", 0, 1, 500, -1, 0, 0, false},
		{"negative queriers", 0, 1, 500, 0, -2, 0, false},
		{"negative workers", 0, 1, 500, 0, 0, -4, false},
	}
	for _, tc := range cases {
		err := validateFlags(tc.n, tc.seed, tc.pairs, tc.events, tc.queriers, tc.workers)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid flags accepted", tc.name)
		}
	}
}

// TestCheckSelection pins which selections are usage errors (exit 2): -list
// alone is not one, a missing -exp without -list is, and so are the
// serving-mode flags on a run that would ignore them. No error names a
// -serve flag: the serving mode is -exp serve-storm only.
func TestCheckSelection(t *testing.T) {
	cases := []struct {
		name             string
		exp              string
		list             bool
		events, queriers int
		ok               bool
	}{
		{"list alone", "", true, 0, 0, true},
		{"list with exp", "fig2", true, 0, 0, true},
		{"nothing selected", "", false, 0, 0, false},
		{"plain experiment", "fig4", false, 0, 0, true},
		{"serve-storm with serving flags", "serve-storm", false, 8, 2, true},
		{"all with serving flags", "all", false, 8, 2, true},
		{"events elsewhere", "churn-timeline", false, 8, 0, false},
		{"queriers elsewhere", "fig3", false, 0, 2, false},
	}
	for _, tc := range cases {
		err := checkSelection(tc.exp, tc.list, tc.events, tc.queriers)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: selection accepted", tc.name)
		}
		if err != nil && strings.Contains(err.Error(), "-serve") {
			t.Errorf("%s: error %q names a -serve flag", tc.name, err)
		}
	}
}

// TestListColumnWidth guards the -list alignment: the name column is
// printed %-14s wide, so every experiment name must fit (churn-timeline,
// at 14 characters, used to overflow the old %-10s column).
func TestListColumnWidth(t *testing.T) {
	const listWidth = 14 // keep in sync with the Printf in main
	for _, e := range eval.Experiments {
		if len(e.Name) > listWidth {
			t.Errorf("experiment name %q is %d chars; widen the -list column (%%-%ds)", e.Name, len(e.Name), listWidth)
		}
	}
}

// TestExperimentTableSane guards the table the doc list is synced to:
// unique names, nonempty descriptions, runnable entries.
func TestExperimentTableSane(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range eval.Experiments {
		if e.Name == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %+v has an empty field", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
	}
}
