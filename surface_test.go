package rxl_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptUnreached is the literal allow-list of TestInternalSurfaceIsReached:
// exported internal/ names that no shipped code path names, each with the
// reason it stays. An entry whose name becomes reached, or that internal/
// no longer declares, fails the test, so the list cannot rot.
var keptUnreached = map[string]string{
	"crc.VerifyISN": "byte-level oracle: flit's clean-verdict suite checks every O(1) verdict against it",
	"phy.GapLogLR":  "reference kernel: the per-gap likelihood ratio UnitLogLR's closed form is tested to telescope from",

	"reliability.MeasureFERPath": "byte-level oracle: the path-schedule suite pins MeasureFERPathSchedule's samples to it",

	"service.inProcessTransport.RoundTrip": "interface method: http.RoundTripper",
	"service.jobQueue.Less":                "interface method: heap.Interface",
	"service.jobQueue.Swap":                "interface method: heap.Interface",

	"core.Fabric.RunFor":                   "facade type method: rxl.Fabric",
	"core.Fig5Report.CleanTransactions":    "facade type method: rxl.Fig5Report",
	"hwcost.Report.RelativeDepthOverhead":  "facade type method: rxl.HardwareReport",
	"hwcost.Circuit.MaxFanIn":              "facade type method: the type of rxl.HardwareReport.Baseline",
	"perf.Params.EffectiveBandwidth":       "facade type method: rxl.Performance",
	"reliability.Params.BERBudgetCrossing": "facade type method: rxl.Reliability",
	"service.Client.GetConditional":        "facade type method: rxl.Client",
	"sim.Engine.Pending":                   "facade type method: rxl.Engine",
}

// TestInternalSurfaceIsReached keeps internal/ free of test-only surface.
// It is a reachability closure over identifiers, not types (go/parser
// only): the roots are every identifier named in a non-test .go file
// outside internal/ — cmd/, examples/, rxl.go, bench/ — plus the root
// bench_test.go, which is the documented E1–E18 harness; a top-level
// internal/ declaration whose name is reached contributes the identifiers
// its signature and body name (not its receiver: a method reached only
// because another type's method shares its name must not pull its own
// type in). Every exported func, method and type of a non-test internal/
// file must end up reached or carry a reason in keptUnreached. Matching
// by bare name means a dead declaration that shares its name with a live
// one goes unnoticed — lenient, never flaky.
func TestInternalSurfaceIsReached(t *testing.T) {
	type decl struct {
		key, name, file string
		names           []string // identifiers the declaration names
		checked         bool     // an exported func, method or type
	}
	var decls []decl
	byName := map[string][]int{} // declared name -> indices into decls
	var work []string
	reached := map[string]bool{}
	reach := func(names []string) {
		for _, name := range names {
			if !reached[name] {
				reached[name] = true
				work = append(work, name)
			}
		}
	}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		if !strings.HasSuffix(path, ".go") ||
			strings.HasSuffix(path, "_test.go") && path != "bench_test.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !strings.HasPrefix(path, "internal/") {
			reach(identsIn(f))
			return nil
		}
		add := func(key string, id *ast.Ident, checked bool, body ...ast.Node) {
			names := identsIn(body...)
			if id.Name == "_" || id.Name == "init" {
				reach(names) // runs unconditionally
				return
			}
			byName[id.Name] = append(byName[id.Name], len(decls))
			decls = append(decls, decl{f.Name.Name + "." + key, id.Name, path, names, checked && id.IsExported()})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil {
					key = receiverName(d.Recv.List[0].Type) + "." + key
				}
				if d.Body == nil { // assembly stub
					add(key, d.Name, true, d.Type)
				} else {
					add(key, d.Name, true, d.Type, d.Body)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, s.Name, true, s.Type)
					case *ast.ValueSpec:
						var body []ast.Node
						if s.Type != nil {
							body = append(body, s.Type)
						}
						for _, v := range s.Values {
							body = append(body, v)
						}
						for _, id := range s.Names {
							add(id.Name, id, false, body...)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		for _, i := range byName[name] {
			reach(decls[i].names)
		}
	}

	var unreached []string
	declared := map[string]bool{}
	for _, d := range decls {
		if !d.checked {
			continue
		}
		declared[d.key] = true
		_, kept := keptUnreached[d.key]
		switch {
		case reached[d.name] && kept:
			t.Errorf("keptUnreached lists %s, but shipped code names it: drop the entry", d.key)
		case !reached[d.name] && !kept:
			unreached = append(unreached, d.key+"  ("+d.file+")")
		}
	}
	for key, reason := range keptUnreached {
		if !declared[key] {
			t.Errorf("keptUnreached lists %s, which internal/ does not declare", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("keptUnreached entry %s has no reason", key)
		}
	}
	if len(unreached) > 0 {
		sort.Strings(unreached)
		t.Errorf("%d exported internal/ declarations are reached by no cmd/, example, rxl.go, bench/ or "+
			"bench_test.go code (delete them with their tests, or add them to keptUnreached with a reason):\n  %s",
			len(unreached), strings.Join(unreached, "\n  "))
	}
}

// singleImporterKept is the literal allow-list of
// TestInternalPackagesEarnTheirBoundary: internal/ packages with fewer than
// two non-test importers, each with the reason its boundary stays. An entry
// whose package gains a second importer, or no longer exists, fails the
// test, so the list cannot rot.
var singleImporterKept = map[string]string{}

// TestInternalPackagesEarnTheirBoundary requires every internal/ package to
// be imported by the non-test files of at least two packages of this module
// (bench/ is a module of its own and does not count). A package with one
// importer folds into it, unless singleImporterKept gives the reason it
// stays apart.
func TestInternalPackagesEarnTheirBoundary(t *testing.T) {
	pkgs := map[string]bool{}
	importers := map[string]map[string]bool{} // package -> importing dirs
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if dep, ok := strings.CutPrefix(ip, "repro/"); ok && strings.HasPrefix(dep, "internal/") {
				if importers[dep] == nil {
					importers[dep] = map[string]bool{}
				}
				importers[dep][dir] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var lone []string
	for pkg := range pkgs {
		_, kept := singleImporterKept[pkg]
		switch n := len(importers[pkg]); {
		case n < 2 && !kept:
			var by []string
			for dir := range importers[pkg] {
				by = append(by, dir)
			}
			sort.Strings(by)
			lone = append(lone, fmt.Sprintf("%s (imported by %v)", pkg, by))
		case n >= 2 && kept:
			t.Errorf("singleImporterKept lists %s, which has %d importers: drop the entry", pkg, n)
		}
	}
	for pkg, reason := range singleImporterKept {
		if !pkgs[pkg] {
			t.Errorf("singleImporterKept lists %s, which is not an internal/ package", pkg)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("singleImporterKept entry %s has no reason", pkg)
		}
	}
	if len(lone) > 0 {
		sort.Strings(lone)
		t.Errorf("%d internal/ packages have fewer than two non-test importers (fold each into its importer, "+
			"or add it to singleImporterKept with a reason):\n  %s", len(lone), strings.Join(lone, "\n  "))
	}
}

// TestBenchmarkIndex makes DESIGN.md §2 the rule for what the root
// package may benchmark: every root Benchmark* function is named there
// (an E-numbered experiment driver, or BenchmarkFloors), every benchmark
// §2 names exists, and §2's floor rows are the floors table's entries.
// Anything else that times the code belongs in bench/.
func TestBenchmarkIndex(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(design), "\n## 2. ")
	if ok {
		sec, _, ok = strings.Cut(sec, "\n## 3. ")
	}
	if !ok {
		t.Fatal("DESIGN.md has no §2 followed by §3")
	}
	indexed := map[string]bool{}
	for _, m := range regexp.MustCompile("`(Benchmark\\w+)`").FindAllStringSubmatch(sec, -1) {
		indexed[m[1]] = true
	}

	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Benchmark") {
				continue
			}
			if !indexed[fn.Name.Name] {
				t.Errorf("%s: %s is not in DESIGN.md §2 — give it an E-number, make it a floor, or move it to bench/",
					path, fn.Name.Name)
			}
			delete(indexed, fn.Name.Name)
		}
	}
	for name := range indexed {
		t.Errorf("DESIGN.md §2 names %s, which the root package does not declare", name)
	}

	for _, f := range floors {
		row := fmt.Sprintf("\n| `%s` | %s / %s | %g |", f.name, f.slow.name, f.fast.name, f.min)
		if !strings.Contains(sec, row) {
			t.Errorf("DESIGN.md §2 has no floor row %q", row[1:])
		}
	}
	if n := strings.Count(sec, "\n| `"); n != len(floors) {
		t.Errorf("DESIGN.md §2 has %d floor rows, the floors table %d entries", n, len(floors))
	}
}

// identsIn lists every identifier under the given nodes.
func identsIn(nodes ...ast.Node) (out []string) {
	for _, n := range nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				out = append(out, id.Name)
			}
			return true
		})
	}
	return out
}

// receiverName returns the type name of a method receiver expression,
// stripping the pointer and any type parameters.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
