package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestFlagTableMatchesFlags: OPERATIONS.md's flag reference lists exactly
// the flags run defines, so a flag added or removed without its row (or a
// row left behind for a deleted flag) fails here.
func TestFlagTableMatchesFlags(t *testing.T) {
	defined := definedFlags(t)
	documented := documentedFlags(t)
	if !slices.Equal(defined, documented) {
		t.Fatalf("odcfpd defines flags %v\nOPERATIONS.md documents %v", defined, documented)
	}
}

// definedFlags returns the name of every flag main.go declares on its
// FlagSet fs: the first string-literal argument of each fs.<Type> or
// fs.Var call.
func definedFlags(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name == "Parse" {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "fs" {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				names = append(names, name)
				break
			}
		}
		return true
	})
	if len(names) == 0 {
		t.Fatal("found no flag declarations in main.go")
	}
	slices.Sort(names)
	return names
}

// documentedFlags returns the flag of every table row in OPERATIONS.md's
// "Flag reference" section.
func documentedFlags(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Flag reference\n")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "## Flag reference" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var names []string
	for _, line := range strings.Split(section, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `-"); ok {
			name, _, _ := strings.Cut(rest, "`")
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}
