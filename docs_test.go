package rxl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// docFlag matches a -name flag mention: a dash that starts a word, so the
// -nopb of "cxl-nopb" and the -6 of "1e-6" are not flags.
var docFlag = regexp.MustCompile(`(?:^|[\s\[(|,])-([a-z][a-z0-9]*(?:-[a-z0-9]+)*)`)

// TestCmdDocsNameTheirFlags keeps every command's package doc comment in
// step with its flags: each flag main.go registers is named as -name in
// the doc comment, and every -name on the indented lines under "Usage:"
// is a registered flag.
func TestCmdDocsNameTheirFlags(t *testing.T) {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no cmd/*/main.go")
	}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		registered := registeredFlags(f)
		if len(registered) == 0 {
			t.Errorf("%s registers no flags", path)
			continue
		}
		doc := f.Doc.Text()
		named := map[string]bool{}
		for _, m := range docFlag.FindAllStringSubmatch(doc, -1) {
			named[m[1]] = true
		}
		for _, name := range registered {
			if !named[name] {
				t.Errorf("%s: flag -%s is not named in the package doc comment", path, name)
			}
		}
		for _, line := range usageLines(doc) {
			for _, m := range docFlag.FindAllStringSubmatch(line, -1) {
				if !slices.Contains(registered, m[1]) {
					t.Errorf("%s: Usage names -%s, which main.go does not register", path, m[1])
				}
			}
		}
	}
}

// registeredFlags lists the names of the flags a file registers on the
// flag package's command line: flag.Int("name", …) or flag.IntVar(&v,
// "name", …) and their kin.
func registeredFlags(f *ast.File) []string {
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0
		switch sel.Sel.Name {
		case "Bool", "BoolFunc", "Duration", "Float64", "Func", "Int", "Int64", "String", "Uint", "Uint64":
		case "BoolVar", "DurationVar", "Float64Var", "Int64Var", "IntVar", "StringVar", "TextVar",
			"Uint64Var", "UintVar", "Var":
			arg = 1
		default:
			return true
		}
		if arg < len(call.Args) {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					names = append(names, name)
				}
			}
		}
		return true
	})
	return names
}

// usageLines returns the indented block that follows a "Usage:" line of
// a doc comment.
func usageLines(doc string) []string {
	_, rest, ok := strings.Cut(doc, "Usage:\n")
	if !ok {
		return nil
	}
	var out []string
	for _, line := range strings.Split(strings.TrimLeft(rest, "\n"), "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		out = append(out, line)
	}
	return out
}

// binaryPath matches a cmd/<x> or examples/<x> directory named in prose,
// a build script or a Makefile.
var binaryPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.-])(?:\./)?((?:cmd|examples)/[a-z][a-z0-9_-]*)`)

// sourcePath matches an internal/<pkg>/<file>.go source file named the
// same way.
var sourcePath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.-])(?:\./)?(internal/[a-z0-9_/]+\.go)\b`)

// TestDocsNameOnlyExistingBinaries fails when a document or build file
// names a cmd/<x> or examples/<x> directory, or an internal/<pkg>/<file>.go
// source file, that does not exist, so a deleted binary or a moved file
// cannot linger in the instructions. CHANGES.md and ROADMAP.md are
// history and are not read.
func TestDocsNameOnlyExistingBinaries(t *testing.T) {
	files := []string{"README.md", "OPERATIONS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md",
		"Makefile", "Dockerfile", "docker-compose.yml"}
	scripts, err := filepath.Glob("scripts/*.sh")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(files, scripts...) {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range binaryPath.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(m[1]); err != nil || !st.IsDir() {
					t.Errorf("%s:%d names %s, which does not exist", path, i+1, m[1])
				}
			}
			for _, m := range sourcePath.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(m[1]); err != nil || !st.Mode().IsRegular() {
					t.Errorf("%s:%d names %s, which does not exist", path, i+1, m[1])
				}
			}
		}
	}
}

// TestMakefileRungsMatchVerifyLevels keeps the Makefile's per-rung
// targets equal to the levels scripts/verify.sh dispatches to a rung
// function, so every rung CI runs is also a make target.
func TestMakefileRungsMatchVerifyLevels(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rule := regexp.MustCompile(`(?m)^([a-z0-9 -]+):.*\n\tscripts/verify\.sh --level=\$@$`).FindSubmatch(mk)
	if rule == nil {
		t.Fatal("Makefile has no rule running scripts/verify.sh --level=$@")
	}
	targets := strings.Fields(string(rule[1]))

	sh, err := os.ReadFile("scripts/verify.sh")
	if err != nil {
		t.Fatal(err)
	}
	var levels []string
	for _, m := range regexp.MustCompile(`(?m)^([a-z0-9]+)\) rung_`).FindAllSubmatch(sh, -1) {
		levels = append(levels, string(m[1]))
	}

	slices.Sort(targets)
	slices.Sort(levels)
	if len(levels) == 0 || !slices.Equal(targets, levels) {
		t.Errorf("Makefile rung targets %v, scripts/verify.sh levels %v", targets, levels)
	}
}
