// Discolint is the repo's contract-enforcement static analyzer suite:
// maporder, seedrand, snapmutate and mergeorder (see
// internal/lint for what each enforces and the //disco: waiver
// directives).
//
// Two ways to run it:
//
//	go build -o /tmp/discolint ./cmd/discolint
//	go vet -vettool=/tmp/discolint ./...     # the CI invocation
//
//	go run ./cmd/discolint ./...             # convenience: re-execs
//	                                         # go vet -vettool=self
//
// As a vettool the binary speaks cmd/go's unit-checker protocol
// (-V=full for the build-cache tool ID, then one vet.cfg per package);
// with package patterns it finds the go command on $PATH and drives
// itself through it, so both forms analyze test files and share the
// build cache.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"disco/internal/lint"
	"disco/internal/lint/vetdriver"
)

func main() {
	args := os.Args[1:]
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full" || args[0] == "-V":
			// Tool-ID handshake: cmd/go requires "<name> version <v>"
			// with at least three fields and v != "devel".
			fmt.Printf("discolint version %s-1\n", strings.TrimPrefix(runtime.Version(), "go"))
			return
		case strings.HasSuffix(args[0], ".cfg"):
			n, err := vetdriver.Run(args[0], lint.Analyzers(), os.Stderr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "discolint: %v\n", err)
				os.Exit(1)
			}
			if n > 0 {
				os.Exit(2)
			}
			return
		case args[0] == "-flags":
			// cmd/go queries supported vet flags as JSON; discolint
			// takes none.
			fmt.Println("[]")
			return
		}
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: discolint [packages]   (or as go vet -vettool=discolint)")
		os.Exit(2)
	}

	// Standalone mode: drive the go command with ourselves as vettool.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "discolint: %v\n", err)
		os.Exit(1)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "discolint: %v\n", err)
		os.Exit(1)
	}
}
