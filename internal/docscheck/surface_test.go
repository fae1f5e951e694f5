package docscheck

import (
	"bytes"
	"flag"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/surface.golden")

// module is the module path of the repository root.
const module = "dynctrl"

// surfaceGolden is the ledger TestSurfaceLedger pins.
const surfaceGolden = "testdata/surface.golden"

// linuxAMD64 is the build context the ledger reads the module under, so that
// files behind build constraints (internal/persist's sync_*.go) count the
// same on every host.
func linuxAMD64() build.Context {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled = "linux", "amd64", false
	return ctx
}

// modulePackages returns every package of the module that has non-test Go
// files, by import path. bench/ is a module of its own and is not walked.
func modulePackages(t *testing.T, ctx build.Context) map[string]*build.Package {
	t.Helper()
	pkgs := map[string]*build.Package{}
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(repoRoot, path)
		if err != nil {
			return err
		}
		if rel != "." {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		pkg, err := ctx.ImportDir(path, 0)
		if err != nil || len(pkg.GoFiles) == 0 {
			return nil // no Go here, or test files only
		}
		pkgs[importPath(rel)] = pkg
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// importPath turns a directory relative to the module root into the import
// path of the package it holds.
func importPath(rel string) string {
	if rel == "." {
		return module
	}
	return module + "/" + filepath.ToSlash(rel)
}

// exportedNames returns pkg's exported identifiers as "kind Name" (kind is
// func, method, type, var or const; a method is written Type.Name), sorted.
// A method counts when both its receiver type and its name are exported.
func exportedNames(t *testing.T, pkg *build.Package) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, name := range pkg.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if !decl.Name.IsExported() {
					continue
				}
				if decl.Recv == nil {
					names = append(names, "func "+decl.Name.Name)
				} else if recv := receiverType(decl.Recv.List[0].Type); ast.IsExported(recv) {
					names = append(names, "method "+recv+"."+decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							names = append(names, "type "+spec.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if id.IsExported() {
								names = append(names, decl.Tok.String()+" "+id.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// receiverType names a method's receiver type: T for T, *T, T[P] and *T[P].
func receiverType(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// importClosure walks the non-test imports of root the way
// internal/server's TestServingPathImportsNoSimulator does: module packages
// are walked, and a standard package is listed but its own imports are not.
func importClosure(pkgs map[string]*build.Package, root string) []string {
	seen := map[string]bool{root: true}
	for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
		pkg := pkgs[queue[0]]
		if pkg == nil {
			continue // a standard package
		}
		for _, imp := range pkg.Imports {
			if !seen[imp] {
				seen[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	var closure []string
	for p := range seen {
		closure = append(closure, p)
	}
	sort.Strings(closure)
	return closure
}

// TestSurfaceLedger pins the module's surface in testdata/surface.golden:
// each package's exported identifiers with their kinds, and the import
// closure of cmd/dynctrld. A change that adds or deletes an exported name,
// or links another package into the daemon, changes the golden, so the
// change is a diff to read rather than a count to trust. Rewrite it with
//
//	go test ./internal/docscheck -run SurfaceLedger -update
//
// Non-test line counts are logged (go test -v), not pinned.
func TestSurfaceLedger(t *testing.T) {
	pkgs := modulePackages(t, linuxAMD64())
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	if len(paths) < 20 {
		t.Fatalf("found only %d packages — the walk is likely stale", len(paths))
	}

	var b strings.Builder
	b.WriteString("# Exported identifiers of each package, from its non-test files (GOOS=linux GOARCH=amd64).\n")
	total := 0
	for _, p := range paths {
		for _, name := range exportedNames(t, pkgs[p]) {
			b.WriteString(p + " " + name + "\n")
		}
		lines := 0
		for _, name := range pkgs[p].GoFiles {
			src, err := os.ReadFile(filepath.Join(pkgs[p].Dir, name))
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(src, []byte("\n"))
		}
		total += lines
		t.Logf("%6d non-test lines  %s", lines, p)
	}
	t.Logf("%6d non-test lines  total", total)
	b.WriteString("\n# Import closure of cmd/dynctrld: module packages walked, standard packages listed but not walked.\n")
	for _, p := range importClosure(pkgs, module+"/cmd/dynctrld") {
		b.WriteString(p + "\n")
	}
	got := b.String()

	if *update {
		if err := os.WriteFile(surfaceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfaceGolden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if got == string(want) {
		return
	}
	count := map[string]int{}
	for _, line := range strings.Split(got, "\n") {
		count[line]++
	}
	for _, line := range strings.Split(string(want), "\n") {
		count[line]--
	}
	for _, line := range strings.Split(string(want)+got, "\n") {
		switch n := count[line]; {
		case n < 0:
			t.Errorf("- %s", line)
		case n > 0:
			t.Errorf("+ %s", line)
		}
		count[line] = 0
	}
	t.Errorf("the surface differs from %s (lines above); if the change is meant, rerun with -update and say why in CHANGES.md", surfaceGolden)
}
