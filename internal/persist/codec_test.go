package persist_test

import (
	"encoding/binary"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"hash/crc32"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/persist"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// encoded keeps the benchmark's encodings live.
var encoded []byte

// BenchmarkSnapshotCodec encodes and decodes the checkpoint of a 250k-node
// balanced tree whose controller has granted one event at every fourth
// node, so the whiteboards hold stores across the whole tree.
func BenchmarkSnapshotCodec(b *testing.B) {
	const nodes = 250_000
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: nodes}, 1); err != nil {
		b.Fatal(err)
	}
	counters := stats.NewCounters()
	ctl := controller.NewDynamic(tr, 4*nodes, nodes/4, controller.WithDynamicCounters(counters))
	for i, id := range tr.Nodes() {
		if i%4 != 0 {
			continue
		}
		if _, err := ctl.Submit(controller.Request{Node: id, Kind: tree.None}); err != nil {
			b.Fatal(err)
		}
	}
	st := &persist.State{
		Index: nodes / 4, Incarnation: 1, M: 4 * nodes, W: nodes / 4,
		Tree: tr.Snapshot(), Ctl: ctl.State(), Counters: counters.Snapshot(),
	}
	enc := persist.AppendState(nil, st)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for range b.N {
			encoded = persist.AppendState(nil, st)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for range b.N {
			if _, err := persist.DecodeSnapshot(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSnapshotPrefixesRefused: every strict prefix of a real snapshot
// payload, framed with its own length and checksum, is refused with an
// error, never a panic: each field the layouts read runs out in turn.
func TestSnapshotPrefixesRefused(t *testing.T) {
	enc := persist.AppendState(nil, fuzzState())
	const hdr = 4 + 2 + 8 + 4
	for n := 0; n < len(enc)-hdr; n++ {
		p := append([]byte(nil), enc[:hdr+n]...)
		binary.LittleEndian.PutUint64(p[6:], uint64(n))
		binary.LittleEndian.PutUint32(p[14:], crc32.Checksum(p[hdr:], crc32.MakeTable(crc32.Castagnoli)))
		if _, err := persist.DecodeSnapshot(p); err == nil {
			t.Fatalf("a %d-byte prefix of the %d-byte payload decoded", n, len(enc)-hdr)
		}
	}
}

// TestCodecNarrowsOnlyInInt type-checks the package and refuses an int
// conversion of a 64-bit value in any function of the snapshot codec (a
// method of *codec or a function taking one) other than (*codec).int, the
// one that refuses a value int cannot hold. Where int is 32 bits a bare
// conversion wraps a corrupt field into range.
func TestCodecNarrowsOnlyInInt(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command to locate export data")
	}
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		exports[path] = file
	}
	bp, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	pkg, err := conf.Check(bp.ImportPath, fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	codec := types.NewPointer(pkg.Scope().Lookup("codec").Type())
	checked := 0
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			sig := info.Defs[fd.Name].Type().(*types.Signature)
			vars := []*types.Var{sig.Recv()}
			for i := range sig.Params().Len() {
				vars = append(vars, sig.Params().At(i))
			}
			if !slices.ContainsFunc(vars, func(v *types.Var) bool { return v != nil && types.Identical(v.Type(), codec) }) {
				continue
			}
			checked++
			if sig.Recv() != nil && fd.Name.Name == "int" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 || !info.Types[call.Fun].IsType() || info.Types[call.Fun].Type != types.Typ[types.Int] {
					return true
				}
				if b, ok := info.Types[call.Args[0]].Type.Underlying().(*types.Basic); ok && (b.Kind() == types.Int64 || b.Kind() == types.Uint64) {
					t.Errorf("%s: %s converts a 64-bit value to int; carry the field with (*codec).int", fset.Position(call.Pos()), fd.Name.Name)
				}
				return true
			})
		}
	}
	if checked < 5 {
		t.Fatalf("found %d codec functions; the check is looking at the wrong code", checked)
	}
}
