package cohort

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
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

// The surface tests keep the module's exported names honest. The ledger
// (testdata/surface.ledger) lists every exported name under internal/ that no
// non-test file of another module package uses, each with the reason it stays
// exported; the API golden (testdata/api.golden) lists the public packages'
// exported names. Both fail on any difference, in either direction, so a
// deletion removes its line and an addition shows up in review.
// UPDATE_GOLDEN=1 rewrites both files, keeping the reasons already recorded.

const modulePath = "cohort"

// ledgerReasons are the tags a ledger line may carry; DESIGN.md §4 defines
// them.
var ledgerReasons = map[string]bool{
	"doc":   true, // a JSON or wire document type returned by an exported method
	"hook":  true, // a test hook
	"ref":   true, // a reference implementation a test compares against
	"ext":   true, // an extension EXPERIMENTS.md tests but the benchmark does not run
	"local": true, // used only inside its own package
}

// builtinIfaceMethods are the standard-library interface methods a method
// may implement to count as used. The list is fixed, not scanned, so the
// ledger is the same on every Go release CI runs.
var builtinIfaceMethods = []string{"Error", "String", "Read", "Write", "Close"}

// TestNoTrackedBinary fails on any tracked file outside a testdata directory
// that is not UTF-8 text: built binaries are not committed.
func TestNoTrackedBinary(t *testing.T) {
	out, err := exec.Command("git", "ls-files", "-z").Output()
	if err != nil {
		t.Skipf("not a git checkout: %v", err)
	}
	for _, name := range strings.Split(string(out), "\x00") {
		if name == "" || strings.Contains("/"+name, "/testdata/") {
			continue
		}
		b, err := os.ReadFile(name)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !utf8.Valid(b) || bytes.IndexByte(b, 0) >= 0 {
			t.Errorf("%s is tracked but is not UTF-8 text", name)
		}
	}
}

// modulePkg is one type-checked package of the module, non-test files only.
type modulePkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

var (
	loadOnce   sync.Once
	loadedPkgs []*modulePkg
	loadErr    error
)

// loadModule type-checks every package of the module from source, in
// dependency order, with the standard library from its export data.
func loadModule(t *testing.T) []*modulePkg {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loadOnce.Do(func() { loadedPkgs, loadErr = typeCheckModule() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loadedPkgs
}

func typeCheckModule() ([]*modulePkg, error) {
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	fset := token.NewFileSet()
	std := importer.Default()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	var pkgs []*modulePkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp struct {
			ImportPath string
			Dir        string
			GoFiles    []string
		}
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if lp.ImportPath != modulePath && !strings.HasPrefix(lp.ImportPath, modulePath+"/") {
			continue
		}
		mp := &modulePkg{path: lp.ImportPath, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			mp.files = append(mp.files, f)
		}
		conf := types.Config{Importer: imp}
		if mp.pkg, err = conf.Check(lp.ImportPath, fset, mp.files, mp.info); err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = mp.pkg
		pkgs = append(pkgs, mp)
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an object of a generic instantiation to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// namedOf returns the named type t or *t denotes, if any.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// exported lists a package's exported package-level names and the exported
// methods of its named types, keyed "pkg.Name" and "pkg.Type.Method".
func exported(pkg *types.Package, short string) map[string]types.Object {
	names := map[string]types.Object{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			names[short+"."+name] = obj
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		n := tn.Type().(*types.Named)
		for i := 0; i < n.NumMethods(); i++ {
			if m := n.Method(i); m.Exported() {
				names[short+"."+name+"."+m.Name()] = m
			}
		}
	}
	return names
}

// surfaceLedger computes the ledger: each exported internal name no non-test
// file of another module package uses, with the reason a new entry gets by
// default: "local" when its own package uses it, and "dead", which the test
// refuses, when no non-test code does. A dead name is deleted, or its line
// is given a reason that review accepts.
func surfaceLedger(pkgs []*modulePkg) map[string]string {
	usedOutside := map[types.Object]bool{}
	usedInside := map[types.Object]bool{}
	ifaceMethods := map[string]bool{}
	for _, m := range builtinIfaceMethods {
		ifaceMethods[m] = true
	}
	for _, mp := range pkgs {
		use := func(obj types.Object) {
			if obj == nil || obj.Pkg() == nil {
				return
			}
			obj = origin(obj)
			if obj.Pkg() == mp.pkg {
				usedInside[obj] = true
			} else {
				usedOutside[obj] = true
			}
		}
		for _, obj := range mp.info.Uses {
			use(obj)
		}
		for _, sel := range mp.info.Selections {
			use(sel.Obj())
			// The receiver and every embedded type on the path to the
			// selected field or method count as used.
			t := sel.Recv()
			path := sel.Index()
			for _, i := range path[:len(path)-1] {
				if n := namedOf(t); n != nil {
					use(n.Obj())
				}
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				t = t.Underlying().(*types.Struct).Field(i).Type()
			}
			if n := namedOf(t); n != nil {
				use(n.Obj())
			}
			if f, ok := sel.Obj().(*types.Func); ok {
				if n := namedOf(f.Type().(*types.Signature).Recv().Type()); n != nil {
					use(n.Obj())
				}
			}
		}
		for _, f := range mp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					iface := mp.info.Types[it].Type.(*types.Interface)
					for i := 0; i < iface.NumMethods(); i++ {
						ifaceMethods[iface.Method(i).Name()] = true
					}
				}
				return true
			})
		}
	}
	ledger := map[string]string{}
	for _, mp := range pkgs {
		short, ok := strings.CutPrefix(mp.path, modulePath+"/internal/")
		if !ok {
			continue
		}
		for key, obj := range exported(mp.pkg, short) {
			if usedOutside[obj] {
				continue
			}
			if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil && ifaceMethods[f.Name()] {
				continue
			}
			if usedInside[obj] {
				ledger[key] = "local"
			} else {
				ledger[key] = "dead"
			}
		}
	}
	return ledger
}

// apiSurface lists the exported names of the public packages: package-level
// names, the methods of exported types, the methods of exported interfaces
// and the fields of exported structs.
func apiSurface(pkgs []*modulePkg) map[string]string {
	api := map[string]string{}
	for _, mp := range pkgs {
		if mp.path != modulePath && mp.path != modulePath+"/client" {
			continue
		}
		short := mp.pkg.Name()
		scope := mp.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			key := short + "." + name
			switch obj := obj.(type) {
			case *types.Const:
				api[key] = "const"
			case *types.Var:
				api[key] = "var"
			case *types.Func:
				api[key] = "func"
			case *types.TypeName:
				api[key] = "type"
				if obj.IsAlias() {
					continue
				}
				n := obj.Type().(*types.Named)
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); m.Exported() {
						api[key+"."+m.Name()] = "method"
					}
				}
				switch u := n.Underlying().(type) {
				case *types.Interface:
					for i := 0; i < u.NumExplicitMethods(); i++ {
						if m := u.ExplicitMethod(i); m.Exported() {
							api[key+"."+m.Name()] = "method"
						}
					}
				case *types.Struct:
					for i := 0; i < u.NumFields(); i++ {
						if f := u.Field(i); f.Exported() {
							api[key+"."+f.Name()] = "field"
						}
					}
				}
			}
		}
	}
	return api
}

// readList reads "name value" lines.
func readList(t *testing.T, file string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	list := map[string]string{}
	for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || name == "" || value == "" {
			t.Fatalf("%s:%d: want \"name value\", got %q", file, i+1, line)
		}
		if _, dup := list[name]; dup {
			t.Fatalf("%s:%d: %s listed twice", file, i+1, name)
		}
		list[name] = value
	}
	return list
}

func writeList(t *testing.T, file string, list map[string]string) {
	t.Helper()
	var b strings.Builder
	for _, name := range sortedKeys(list) {
		fmt.Fprintf(&b, "%s %s\n", name, list[name])
	}
	if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// diffNames reports the names only one side holds.
func diffNames(t *testing.T, file string, got, want map[string]string) {
	t.Helper()
	for _, name := range sortedKeys(got) {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s %s is missing from the file", file, name, got[name])
		}
	}
	for _, name := range sortedKeys(want) {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: %s is listed but the code no longer has it", file, name)
		}
	}
}

func TestSurfaceLedger(t *testing.T) {
	const file = "testdata/surface.ledger"
	got := surfaceLedger(loadModule(t))
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if b, err := os.ReadFile(file); err == nil && len(b) > 0 {
			for name, reason := range readList(t, file) {
				if _, ok := got[name]; ok {
					got[name] = reason
				}
			}
		}
		writeList(t, file, got)
		return
	}
	want := readList(t, file)
	for name, reason := range want {
		if !ledgerReasons[reason] {
			t.Errorf("%s: %s has unknown reason %q", file, name, reason)
		}
	}
	diffNames(t, file, got, want)
	t.Logf("%d ledger entries", len(want))
}

func TestAPIGolden(t *testing.T) {
	const file = "testdata/api.golden"
	got := apiSurface(loadModule(t))
	if os.Getenv("UPDATE_GOLDEN") != "" {
		writeList(t, file, got)
		return
	}
	want := readList(t, file)
	diffNames(t, file, got, want)
	for name, kind := range want {
		if g, ok := got[name]; ok && g != kind {
			t.Errorf("%s: %s is a %s, listed as a %s", file, name, g, kind)
		}
	}
}

// flagBudgets caps each command's flags: a knob that only one value ever
// uses is a constant, not a flag. CI also counts the -h output.
var flagBudgets = map[string]int{"cohortd": 13, "cohortgw": 5, "cohortload": 6}

// TestFlagBudgets counts the flag definitions in each budgeted command's
// non-test files — every call of a flag-package function that defines one
// (flag.String, flag.IntVar, flag.Func, ...) — and fails above its budget.
func TestFlagBudgets(t *testing.T) {
	defines := func(name string) bool {
		switch name {
		case "Var", "Func", "BoolFunc", "TextVar":
			return true
		}
		base := strings.TrimSuffix(name, "Var")
		switch base {
		case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration":
			return true
		}
		return false
	}
	for cmd, budget := range flagBudgets {
		dir := filepath.Join("cmd", cmd)
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		n := 0
		fset := token.NewFileSet()
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && defines(sel.Sel.Name) {
					n++
				}
				return true
			})
		}
		t.Logf("%s: %d flags (budget %d)", cmd, n, budget)
		if n > budget {
			t.Errorf("%s defines %d flags, above its budget of %d", cmd, n, budget)
		}
	}
}
