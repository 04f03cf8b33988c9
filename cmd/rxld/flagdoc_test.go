package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestFleetFlagTableMatchesFlags keeps OPERATIONS.md's "Flag reference
// (fleet)" table in step with rxld: it must list exactly the -fleet* flags
// main.go defines, so a flag added, renamed or removed without its row
// fails here.
func TestFleetFlagTableMatchesFlags(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var defined []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if name, _ := strconv.Unquote(lit.Value); strings.HasPrefix(name, "fleet") {
			defined = append(defined, name)
		}
		return true
	})
	if len(defined) == 0 {
		t.Fatal("found no -fleet* flag definitions in main.go")
	}

	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "Flag reference (fleet):\n")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "Flag reference (fleet):" table`)
	}
	table, _, _ = strings.Cut(strings.TrimLeft(table, "\n"), "\n\n")
	row := regexp.MustCompile("^\\| `-([a-z-]+)[ `]")
	var listed []string
	for _, line := range strings.Split(table, "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			listed = append(listed, m[1])
		}
	}

	slices.Sort(defined)
	slices.Sort(listed)
	if !slices.Equal(defined, listed) {
		t.Errorf("OPERATIONS.md fleet flag table lists %v, rxld defines %v", listed, defined)
	}
}
