package tree

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestOnlySlotNarrowsIDs type-checks this package and internal/controller
// and refuses a conversion to uint32 of a NodeID or of any other 64-bit or
// word-sized integer anywhere but in slot, the one helper that refuses an id
// past the last slot. The tables hold ids in 32-bit slots, and a bare
// conversion of a corrupt or overgrown id would wrap it onto a live one.
func TestOnlySlotNarrowsIDs(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command to locate export data")
	}
	dirs := []string{".", "../controller"}
	out, err := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}, dirs...)...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		exports[path] = file
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	wide := func(tv types.TypeAndValue) bool {
		if tv.Value != nil || tv.Type == nil {
			return false // a constant the compiler has range-checked
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		if !ok {
			return false
		}
		switch b.Kind() {
		case types.Int64, types.Uint64, types.Int, types.Uint, types.Uintptr:
			return true
		}
		return false
	}
	checked := 0
	for _, dir := range dirs {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, dir+"/"+name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		if _, err := conf.Check(bp.ImportPath, fset, files, info); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || dir == "." && fd.Recv == nil && fd.Name.Name == "slot" {
					continue
				}
				checked++
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) != 1 || !info.Types[call.Fun].IsType() {
						return true
					}
					if b, ok := info.Types[call.Fun].Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uint32 && wide(info.Types[call.Args[0]]) {
						t.Errorf("%s: %s narrows a %s to uint32 outside tree's slot", fset.Position(call.Pos()), fd.Name.Name,
							types.TypeString(info.Types[call.Args[0]].Type, (*types.Package).Name))
					}
					return true
				})
			}
		}
	}
	if checked < 100 {
		t.Fatalf("found %d functions in the two packages; the check is looking at the wrong code", checked)
	}
}
