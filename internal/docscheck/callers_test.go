package docscheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledReasons lists, by hand, each exported name under internal/ that no
// caller outside its own package uses, with the reason it stays exported.
// -update never writes it.
const uncalledReasons = "testdata/uncalled.txt"

// A verdict is what the caller ledger finds for one exported name.
type verdict int

const (
	called   verdict = iota // a caller outside its own package uses it
	local                   // only its own package uses it
	uncalled                // no non-test package uses it
)

func (v verdict) String() string {
	return [...]string{"called", "local", "uncalled"}[v]
}

// exampleCaller is the pseudo-package that stands for the bodies of the
// Example functions in the root package's external test files.
const exampleCaller = "(Example)"

// callerLedger type-checks a module's non-test packages from source, each
// exactly once so that a name is one object wherever it is used, and records
// which packages use each exported name. Packages outside the module come
// from std, an importer over export data.
type callerLedger struct {
	fset *token.FileSet
	src  map[string][]*ast.File // the files of each module package, by import path
	std  types.Importer
	pkgs map[string]*types.Package
	// users holds, for each name (as the surface golden writes it), the
	// packages that use it; a pseudo-package in parentheses stands for the
	// standard library calling String or Error.
	users map[string]map[string]bool
	// dynamic holds the interface methods each package calls.
	dynamic map[ifaceCall]bool
	// aliased maps each type alias the root declares to the name of the
	// type it stands for, so that holding a value of that type uses it.
	aliased map[string]string
}

// An ifaceCall is package pkg calling method name through interface iface.
type ifaceCall struct {
	pkg, name string
	iface     *types.Interface
}

// classify type-checks src, the module's packages by import path, and
// returns the verdict for every exported package-level name and method
// they declare, keyed as the surface golden writes it: "path kind Name" or
// "path method Type.Name". Files named _test.go are dropped first, except
// the root package's external test files that declare an Example function:
// the bodies of those functions count as one more caller. A name under the
// package root is called only when a package under root/examples/ or an
// Example function uses it, and a type alias there is used wherever a value
// of the type it stands for is held.
func classify(fset *token.FileSet, root string, src map[string][]*ast.File, std types.Importer) (map[string]verdict, error) {
	l := &callerLedger{
		fset:    fset,
		src:     map[string][]*ast.File{},
		std:     std,
		pkgs:    map[string]*types.Package{},
		users:   map[string]map[string]bool{},
		dynamic: map[ifaceCall]bool{},
		aliased: map[string]string{},
	}
	var examples []*ast.File
	for path, files := range src {
		for _, f := range files {
			switch {
			case !strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go"):
				l.src[path] = append(l.src[path], f)
			case path == root && strings.HasSuffix(f.Name.Name, "_test") && len(exampleBodies(f)) > 0:
				examples = append(examples, f)
			}
		}
	}
	paths := make([]string, 0, len(l.src))
	for path := range l.src {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	if err := l.checkExamples(root, examples); err != nil {
		return nil, err
	}
	scope := l.pkgs[root].Scope()
	for _, n := range scope.Names() {
		if tn, ok := scope.Lookup(n).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				l.aliased[nameOf(tn)] = nameOf(named.Origin().Obj())
			}
		}
	}

	// Every dynamic call is known once every package is checked: credit
	// them, then judge each name.
	var names []string
	for _, path := range paths {
		scope := l.pkgs[path].Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			names = append(names, nameOf(obj))
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					l.callDynamic(named)
					for i := 0; i < named.NumMethods(); i++ {
						names = append(names, nameOf(named.Method(i)))
					}
				}
			}
		}
	}
	verdicts := map[string]verdict{}
	for _, name := range names {
		if name != "" {
			verdicts[name] = l.judge(name, root)
		}
	}
	return verdicts, nil
}

// exampleBodies returns the bodies of the Example functions f declares.
func exampleBodies(f *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Body != nil && strings.HasPrefix(fn.Name.Name, "Example") {
			bodies = append(bodies, fn.Body)
		}
	}
	return bodies
}

// checkExamples type-checks the root package's external test files that
// declare Example functions and credits exampleCaller with what the bodies
// of those functions use; the rest of the files uses nothing.
func (l *callerLedger) checkExamples(root string, files []*ast.File) error {
	if len(files) == 0 {
		return nil
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", "amd64")}
	if _, err := conf.Check(root+"_test", l.fset, files, info); err != nil {
		return err
	}
	var bodies []*ast.BlockStmt
	for _, f := range files {
		bodies = append(bodies, exampleBodies(f)...)
	}
	inExample := func(n ast.Node) bool {
		for _, b := range bodies {
			if b.Pos() <= n.Pos() && n.End() <= b.End() {
				return true
			}
		}
		return false
	}
	for id, obj := range info.Uses {
		if inExample(id) {
			l.use(exampleCaller, obj)
		}
	}
	for expr, tv := range info.Types {
		if inExample(expr) {
			l.reach(exampleCaller, tv.Type)
		}
	}
	return nil
}

// judge gives the verdict for name from its users. A name of the package
// root counts only the packages under root/examples/ and the Example
// functions as callers, and an alias there also the users of its type; any
// other user leaves it local.
func (l *callerLedger) judge(name, root string) verdict {
	own, _, _ := strings.Cut(name, " ")
	if own == root {
		v := uncalled
		for _, n := range []string{name, l.aliased[name]} {
			for u := range l.users[n] {
				if u == exampleCaller || strings.HasPrefix(u, root+"/examples/") {
					return called
				}
				v = local
			}
		}
		return v
	}
	users := l.users[name]
	for u := range users {
		if u != own {
			return called
		}
	}
	if users[own] {
		return local
	}
	return uncalled
}

// Import type-checks a module package from source, once; any other package
// comes from export data.
func (l *callerLedger) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := l.src[path]
	if !ok {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if l.std == nil {
			return nil, fmt.Errorf("no source or export data for %s", path)
		}
		return l.std.Import(path)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", "amd64")}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	for _, obj := range info.Uses {
		l.use(path, obj)
	}
	for _, tv := range info.Types {
		l.reach(path, tv.Type)
	}
	return pkg, nil
}

// use credits pkg with a use of obj. A method called through an interface
// is credited later, to every method its callee may be.
func (l *callerLedger) use(pkg string, obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if iface := interfaceOf(recv.Type()); iface != nil {
				if fn.Exported() {
					l.dynamic[ifaceCall{pkg, fn.Name(), iface}] = true
				}
				return
			}
		}
		obj = fn
	}
	l.credit(nameOf(obj), pkg)
}

// reach credits pkg with every named type a value of type t lets it hold
// without naming the type, as s in s := server.New(…).
func (l *callerLedger) reach(pkg string, t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		l.credit(nameOf(t.Origin().Obj()), pkg)
		for i := 0; i < t.TypeArgs().Len(); i++ {
			l.reach(pkg, t.TypeArgs().At(i))
		}
	case *types.Pointer:
		l.reach(pkg, t.Elem())
	case *types.Slice:
		l.reach(pkg, t.Elem())
	case *types.Array:
		l.reach(pkg, t.Elem())
	case *types.Chan:
		l.reach(pkg, t.Elem())
	case *types.Map:
		l.reach(pkg, t.Key())
		l.reach(pkg, t.Elem())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			l.reach(pkg, t.At(i).Type())
		}
	}
}

// callDynamic credits the methods of named, its own or promoted, with the
// packages that call them through an interface that named or *named
// implements, and credits the standard library with a String or Error
// method that makes named a fmt.Stringer or an error.
func (l *callerLedger) callDynamic(named *types.Named) {
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); (m.Name() == "String" || m.Name() == "Error") && types.Identical(m.Type(), stringMethod) {
			l.credit(nameOf(m), "("+m.Name()+")")
		}
	}
	if named.TypeParams().Len() > 0 || types.IsInterface(named) {
		return
	}
	ptr := types.NewPointer(named)
	for call := range l.dynamic {
		if types.Implements(named, call.iface) || types.Implements(ptr, call.iface) {
			obj, _, _ := types.LookupFieldOrMethod(ptr, false, nil, call.name)
			l.credit(nameOf(obj), call.pkg)
		}
	}
}

// stringMethod is the signature of fmt.Stringer's String and of error's
// Error; types.Identical ignores the receiver.
var stringMethod = types.NewSignatureType(nil, nil, nil, nil,
	types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Typ[types.String])), false)

func (l *callerLedger) credit(name, pkg string) {
	if name == "" {
		return
	}
	if l.users[name] == nil {
		l.users[name] = map[string]bool{}
	}
	l.users[name][pkg] = true
}

// interfaceOf returns the interface a method with receiver type t is
// called through, or nil when t is not an interface or a type parameter.
func interfaceOf(t types.Type) *types.Interface {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if tp, ok := types.Unalias(t).(*types.TypeParam); ok {
		t = tp.Constraint()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// nameOf writes an exported package-level object or method of an exported
// type as the surface golden does, or returns "" for anything else.
func nameOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	pkg := obj.Pkg()
	kind := ""
	switch obj := obj.(type) {
	case *types.Func:
		recv := obj.Type().(*types.Signature).Recv()
		if recv == nil {
			kind = "func"
			break
		}
		t := types.Unalias(recv.Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		named, ok := t.(*types.Named)
		if !ok || !named.Obj().Exported() {
			return ""
		}
		return pkg.Path() + " method " + named.Obj().Name() + "." + obj.Name()
	case *types.TypeName:
		kind = "type"
	case *types.Var:
		kind = "var"
	case *types.Const:
		kind = "const"
	default:
		return ""
	}
	if obj.Parent() != pkg.Scope() {
		return "" // a field, a parameter or a local
	}
	return pkg.Path() + " " + kind + " " + obj.Name()
}

// reasonLine is one line of uncalled.txt: a name as the surface golden
// writes it, two spaces, and its reason.
var (
	reasonLine = regexp.MustCompile(`^(\S+ (?:func|method|type|var|const) \S+)  (.+)$`)
	reasonKind = regexp.MustCompile(`^(?:(?:harness|reference|format): ((?:Test|Fuzz|Benchmark)\w*)|sentinel)$`)
)

// reconcile holds the reasons in uncalled.txt to the verdicts of the names
// of the module rooted at root: each local or uncalled name under internal/
// needs exactly one line, each line a name under internal/ that exists and
// has no caller, and a reason of one of the four kinds whose test exists.
// A name of the package root takes no line: it needs a caller.
func reconcile(root string, verdicts map[string]verdict, reasons string, testExists func(string) bool) []string {
	var problems []string
	lined := map[string]bool{}
	for i, line := range strings.Split(reasons, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := reasonLine.FindStringSubmatch(line)
		if m == nil {
			problems = append(problems, fmt.Sprintf("%s:%d: want \"<package> <kind> <Name>  <reason>\", got %q", uncalledReasons, i+1, line))
			continue
		}
		name, reason := m[1], m[2]
		if lined[name] {
			problems = append(problems, fmt.Sprintf("%s: a second line for %s", uncalledReasons, name))
		}
		lined[name] = true
		v, ok := verdicts[name]
		switch {
		case !strings.HasPrefix(name, root+"/internal/"):
			problems = append(problems, fmt.Sprintf("%s: only a name under internal/ takes a line; drop it", name))
		case !ok:
			problems = append(problems, fmt.Sprintf("%s: no longer exists; drop its line", name))
		case v == called:
			problems = append(problems, fmt.Sprintf("%s: has a caller (%s); drop its line", name, v))
		}
		if k := reasonKind.FindStringSubmatch(reason); k == nil {
			problems = append(problems, fmt.Sprintf("%s: reason %q is not one of harness: <test>, reference: <test>, sentinel, format: <test>", name, reason))
		} else if k[1] != "" && !testExists(k[1]) {
			problems = append(problems, fmt.Sprintf("%s: reason names %s, which no test file declares", name, k[1]))
		}
	}
	for name, v := range verdicts {
		if own, _, _ := strings.Cut(name, " "); own == root && v != called {
			problems = append(problems, fmt.Sprintf("%s: no use in examples/ or an Example function; use it in one, or delete it", name))
		}
		if lined[name] || !strings.HasPrefix(name, root+"/internal/") {
			continue
		}
		switch v {
		case local:
			problems = append(problems, fmt.Sprintf("%s: used only inside its own package; unexport it, or give it a line in %s", name, uncalledReasons))
		case uncalled:
			problems = append(problems, fmt.Sprintf("%s: no non-test use; delete it, or give it a line in %s", name, uncalledReasons))
		}
	}
	sort.Strings(problems)
	return problems
}

// listedPackage is what the caller ledger reads of go list -json.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// loadModule parses the non-test files of every package of the module and
// of bench/, as GOOS=linux GOARCH=amd64 builds them, and the root package's
// external test files that declare an Example function, and returns them
// with an importer over the export data of the standard packages they
// import.
func loadModule(t *testing.T) (*token.FileSet, map[string][]*ast.File, types.Importer) {
	t.Helper()
	fset := token.NewFileSet()
	src := map[string][]*ast.File{}
	args := []string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard", "./...", module + "/..."}
	tests, err := filepath.Glob(filepath.Join(repoRoot, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tests {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == module+"_test" && len(exampleBodies(f)) > 0 {
			src[module] = append(src[module], f)
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				args = append(args, path)
			}
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = filepath.Join(repoRoot, "bench")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=amd64", "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
			continue
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			src[p.ImportPath] = append(src[p.ImportPath], f)
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	return fset, src, std
}

// testNames returns the name of every Test, Fuzz and Benchmark function
// declared in a _test.go file of the module.
func testNames(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestEveryExportedNameHasACaller is the caller ledger. It type-checks
// every non-test package of the module and of bench/ (GOOS=linux
// GOARCH=amd64), and the Example functions of the root package's tests,
// and counts, for each exported package-level name and method, the callers
// outside its own package that use it: an identifier that resolves to it, a
// call through an interface its type implements, a value of its type held
// without naming it, and, for a String or Error method, fmt and error. A
// caller is a non-test package or an Example function; a name of the root
// package counts only examples/ and the Example functions. Every root name
// has such a caller. Every name under internal/ with no caller is deleted,
// unexported, or listed in testdata/uncalled.txt with one reason:
//
//	harness: <test>    non-test code another package's tests import
//	reference: <test>  an implementation a test compares the code against
//	sentinel           an error an exported function can return
//	format: <test>     a constant or encoder of a disk or wire format a pin,
//	                   the fixture or a fuzz seed reads
func TestEveryExportedNameHasACaller(t *testing.T) {
	fset, src, std := loadModule(t)
	verdicts, err := classify(fset, module, src, std)
	if err != nil {
		t.Fatal(err)
	}
	reasons, err := os.ReadFile(uncalledReasons)
	if err != nil {
		t.Fatal(err)
	}
	tests := testNames(t)
	for _, p := range reconcile(module, verdicts, string(reasons), func(name string) bool { return tests[name] }) {
		t.Error(p)
	}

	golden, err := os.ReadFile(surfaceGolden)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]map[verdict]int{"root": {}, "internal/": {}}
	for _, line := range strings.Split(string(golden), "\n") {
		if strings.Count(line, " ") != 2 {
			continue // a comment or the import closure
		}
		part := "root"
		if strings.HasPrefix(line, module+"/internal/") {
			part = "internal/"
		} else if !strings.HasPrefix(line, module+" ") {
			continue
		}
		v, ok := verdicts[line]
		if !ok {
			t.Errorf("%s is in %s but the caller ledger did not classify it", line, surfaceGolden)
		}
		count[part][v]++
	}
	for _, part := range []string{"root", "internal/"} {
		c := count[part]
		t.Logf("exported names of %s: %d called, %d local, %d uncalled", part, c[called], c[local], c[uncalled])
	}
}

// TestCallerLedgerRules holds the caller ledger to one verdict per rule, on
// a module held in memory: a root package m that aliases types of
// m/internal/a and has an Example, a program under m/examples/ and one under
// m/cmd/ that use m, and m/internal/b, which uses a.
func TestCallerLedgerRules(t *testing.T) {
	mod := map[string]map[string]string{
		"m": {"m.go": `package m

import "m/internal/a"

type Tree = a.Tree

type Engine = a.Engine

func Open() *a.Engine { return nil }

func Start() {}

func Tool() {}

func Tested() {}

func Unshown() {}
`, "m_test.go": `package m_test

import "m"

func ExampleStart() { m.Start() }

func TestTested() { m.Tested() }
`},
		"m/examples/demo": {"main.go": `package main

import "m"

func main() { _ = m.Open() }
`},
		"m/cmd/tool": {"main.go": `package main

import "m"

func main() { m.Tool() }
`},
		"m/internal/a": {"a.go": `package a

type Tree struct{}

func (*Tree) NCA() int { return 0 }

type Engine struct{}

type Submitter interface{ Submit() }

type Core struct{}

func (*Core) Submit() {}

func New() *Core { return &Core{} }

func Local() {}

func helper() { Local() }

func TestOnly() {}

func Stale() {}
`, "a_test.go": `package a

func use() { TestOnly() }
`},
		"m/internal/b": {"b.go": `package b

import "m/internal/a"

func Run() {
	var s a.Submitter = a.New()
	s.Submit()
	a.Stale()
}
`},
	}
	fset := token.NewFileSet()
	src := map[string][]*ast.File{}
	for path, files := range mod {
		for name, text := range files {
			f, err := parser.ParseFile(fset, path+"/"+name, text, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			src[path] = append(src[path], f)
		}
	}
	verdicts, err := classify(fset, "m", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	problems := reconcile("m", verdicts, "m/internal/a func Stale  sentinel\nm func Start  sentinel\n", func(string) bool { return true })

	for _, c := range []struct {
		rule, name string
		want       verdict
	}{
		{"a name used only from a _test.go file is uncalled", "m/internal/a func TestOnly", uncalled},
		{"a method used only through an interface is called", "m/internal/a method Core.Submit", called},
		{"a type reached only by inference is called", "m/internal/a type Core", called},
		{"a name used only in its own package is local", "m/internal/a func Local", local},
		{"a method of a type the root package aliases, with no caller outside its package, is uncalled", "m/internal/a method Tree.NCA", uncalled},
		{"a root name used only in an Example function is called", "m func Start", called},
		{"a use in a root test function not named Example does not count", "m func Tested", uncalled},
		{"a root name used only outside the examples is not called", "m func Tool", local},
		{"a root alias is called where an example holds a value of its type", "m type Engine", called},
	} {
		t.Run(c.rule, func(t *testing.T) {
			if got, ok := verdicts[c.name]; !ok || got != c.want {
				t.Errorf("%s: %v (classified: %v), want %v", c.name, got, ok, c.want)
			}
		})
	}
	for _, c := range []struct{ rule, want string }{
		{"a reason line for a name that has a caller is stale", "m/internal/a func Stale: has a caller"},
		{"a root name used by nothing fails", "m func Unshown: no use in examples/ or an Example function"},
		{"a reason line for a root name is refused", "m func Start: only a name under internal/ takes a line"},
	} {
		t.Run(c.rule, func(t *testing.T) {
			for _, p := range problems {
				if strings.HasPrefix(p, c.want) {
					return
				}
			}
			t.Errorf("no problem reads %q: %q", c.want, problems)
		})
	}
}
