package filterdir_test

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
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportAllow lists the exported names under internal/ that
// TestNoTestOnlyExports accepts without a non-test reference, each a
// cross-package test seam that no production accessor can replace. Names
// are as the gate prints them.
var exportAllow = []allowed{
	{"internal/chaos.Injector.SetPlan", "test seam: the supervisor and cascade tests change a running injector's fault plan"},
	{"internal/chaos.Injector.RefuseFor", "test seam: the supervisor and cascade tests refuse dials for a window"},
	{"internal/dit.Store.ActiveHolds", "test seam: the resync and supervisor tests check every reload snapshot hold was released"},
	{"internal/entry.Entry.Frozen", "test seam: the dit, replica and resync tests check that what they publish is frozen"},
}

// allowed is one exportAllow entry.
type allowed struct{ name, reason string }

// TestNoTestOnlyExports is the production-code gate, one export rule for
// the whole module:
//   - every exported function, method, type, constant or variable declared
//     in a non-test file under internal/ must be referenced by some non-test
//     file of the module (cmd/, examples/, bench/, the root package or
//     internal/ itself);
//   - every exported name of the root filterdir package must be referenced
//     by a non-test file under cmd/, examples/ or bench/, or, for a type
//     alias, be named in the signature of a root function that is;
//     filterdir_test.go does not count.
//
// Code that only tests reach belongs in a _test.go file, or in a test
// helper package (a package whose name ends in "test", such as dntest). A
// With* option needs a non-test caller outside its own package: an option
// only the package itself sets is a mode no deployment selects.
func TestNoTestOnlyExports(t *testing.T) {
	flagged, rootNames, err := testOnlyExports(".", exportAllow)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("root package: %d exported names", rootNames) // make loc prints this count
	for _, f := range flagged {
		t.Errorf("%s: no non-test reference the rule accepts; delete it, move it into a _test.go file or to the package that uses it", f)
	}
}

// TestExportGateFixture runs the gate over a fixture module that plants one
// case of each rule, and checks that the gate flags exactly the cases that
// break one. An entry for an export that has a caller is stale, and fails
// the gate.
func TestExportGateFixture(t *testing.T) {
	allow := []allowed{{"internal/lib.Allowed", "fixture: an allow-listed export"}}
	flagged, rootNames, err := testOnlyExports(filepath.Join("testdata", "exportgate"), allow)
	if err != nil {
		t.Fatal(err)
	}
	if rootNames != 6 {
		t.Errorf("counted %d root exported names, want the fixture's 6", rootNames)
	}
	cases := []struct {
		name, why string
		flagged   bool
	}{
		{"internal/lib.OnlyTested", "a function only a test calls", true},
		{"internal/lib.WithOwnOnly", "a With* option only its own package sets", true},
		{"internal/lib.OnlyTestedType", "a type only a test names", true},
		{"internal/lib.Unreferenced", "a constant nothing references", true},
		{"internal/lib.OnlyTestedVar", "a variable only a test reads", true},
		{"internal/lib.Reader.Read", "a method only an interface reaches", false},
		{"internal/lib.OnlyBench", "a function only bench/ calls", false},
		{"internal/lib.Allowed", "an allow-listed function", false},
		{"internal/lib.Step", "a constant only its own package references", false},
		{"gatefixture.NewThing", "a root function cmd/ calls", false},
		{"gatefixture.Thing", "a root alias only a kept signature names", false},
		{"gatefixture.Limit", "a root variable bench/ reads", false},
		{"gatefixture.OnlyRootTested", "a root function only the root's test calls", true},
		{"gatefixture.Source", "a root alias nothing names", true},
		{"gatefixture.Mode", "a root constant nothing references", true},
	}
	var want []string
	for _, tc := range cases {
		t.Run(tc.why, func(t *testing.T) {
			if got := slices.Contains(flagged, tc.name); got != tc.flagged {
				t.Errorf("%s flagged %v, want %v", tc.name, got, tc.flagged)
			}
		})
		if tc.flagged {
			want = append(want, tc.name)
		}
	}
	sort.Strings(want)
	if strings.Join(flagged, " ") != strings.Join(want, " ") {
		t.Errorf("flagged %q, want exactly %q", flagged, want)
	}
	t.Run("a stale allow-list entry", func(t *testing.T) {
		stale := append(allow, allowed{"internal/lib.OnlyBench", "fixture: stale"})
		if _, _, err := testOnlyExports(filepath.Join("testdata", "exportgate"), stale); err == nil {
			t.Error("a stale allow-list entry passed")
		}
	})
}

// gatePkg is one package of the module, type-checked from its non-test
// files.
type gatePkg struct {
	path  string // import path
	rel   string // directory relative to the module root, slash-separated
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// listed is what `go list -json` reports of a package.
type listed struct {
	ImportPath, Dir, Export string
	Standard                bool
	GoFiles                 []string
}

// testOnlyExports loads the module rooted at root and returns, sorted, the
// exported names under internal/ and of the root package that break the
// rule TestNoTestOnlyExports states and that allow does not list, and the
// number of names the root package exports. An allow entry that names
// nothing the rule flags is an error: the list only shrinks.
func testOnlyExports(root string, allow []allowed) (flagged []string, rootNames int, err error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, 0, err
	}
	// Every package the module builds, each after its dependencies.
	deps, err := goList(root, "-deps", "./...")
	if err != nil {
		return nil, 0, err
	}
	// The standard library comes from the build cache's export data, not
	// from type-checking its source.
	args := []string{"-export"}
	for _, l := range deps {
		if l.Standard {
			args = append(args, l.ImportPath)
		}
	}
	std, err := goList(root, args...)
	if err != nil {
		return nil, 0, err
	}
	exports := map[string]string{}
	for _, l := range std {
		exports[l.ImportPath] = l.Export
	}
	fset := token.NewFileSet()
	stdImp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	// Module packages are type-checked from source, each once and in
	// dependency order, so that an object used in one package is the very
	// object declared in another.
	pkgs := map[string]*gatePkg{}
	var paths []string
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := pkgs[path]; p != nil {
			return p.types, nil
		}
		return stdImp.Import(path)
	})
	for _, l := range deps {
		if l.Standard {
			continue
		}
		rel, err := filepath.Rel(absRoot, l.Dir)
		if err != nil {
			return nil, 0, err
		}
		p := &gatePkg{path: l.ImportPath, rel: filepath.ToSlash(rel), info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}}
		for _, name := range l.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(l.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, 0, err
			}
			p.files = append(p.files, f)
		}
		if p.types, err = (&types.Config{Importer: imp}).Check(p.path, fset, p.files, p.info); err != nil {
			return nil, 0, fmt.Errorf("type-check %s: %w", p.path, err)
		}
		pkgs[p.path] = p
		paths = append(paths, p.path)
	}

	// usedFrom records, per object, the packages whose non-test files
	// reference it.
	usedFrom := map[types.Object]map[string]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if usedFrom[obj] == nil {
				usedFrom[obj] = map[string]bool{}
			}
			usedFrom[obj][p.path] = true
		}
	}

	// viaIface holds the methods some interface reaches: for every named type
	// of the module whose value or pointer implements an interface in reach,
	// the methods its method set selects for that interface's names. Such a
	// method may have no direct caller yet run through the interface, and
	// that covers methods an embedding type promotes.
	ifaces, err := reachableInterfaces(fset, pkgs)
	if err != nil {
		return nil, 0, err
	}
	viaIface := map[*types.Func]bool{}
	for _, p := range pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				ms := types.NewMethodSet(typ)
				for _, it := range ifaces {
					if !types.Implements(typ, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
							viaIface[sel.Obj().(*types.Func).Origin()] = true
						}
					}
				}
			}
		}
	}

	var unused []string
	for _, path := range paths {
		p := pkgs[path]
		if p.rel == "." {
			var rootUnused []string
			rootUnused, rootNames = unusedRootExports(p, pkgs, usedFrom)
			unused = append(unused, rootUnused...)
			continue
		}
		if !strings.HasPrefix(p.rel, "internal/") || strings.HasSuffix(p.types.Name(), "test") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						for _, id := range specNames(spec) {
							if id.IsExported() && len(usedFrom[p.info.Defs[id]]) == 0 {
								unused = append(unused, p.rel+"."+id.Name)
							}
						}
					}
					continue
				}
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				users := usedFrom[fn]
				own := 0
				if fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "With") && users[p.path] {
					own = 1 // an option's own package does not count
				}
				if len(users) > own || viaIface[fn] {
					continue
				}
				name := p.rel + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := fn.Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					name = p.rel + "." + recv.(*types.Named).Obj().Name() + "." + fd.Name.Name
				}
				unused = append(unused, name)
			}
		}
	}
	allowedNames := map[string]bool{}
	for _, a := range allow {
		if !slices.Contains(unused, a.name) {
			return nil, 0, fmt.Errorf("allow-list entry %s names nothing the gate flags: remove it", a.name)
		}
		allowedNames[a.name] = true
	}
	for _, name := range unused {
		if !allowedNames[name] {
			flagged = append(flagged, name)
		}
	}
	sort.Strings(flagged)
	return flagged, rootNames, nil
}

// unusedRootExports returns the exported names of the root package p that
// no non-test file under cmd/, examples/ or bench/ references, as
// "<module>.<Name>", and the number of names p exports. A type alias a kept
// function names in its signature is kept too, so that a caller can name
// what it takes and returns.
func unusedRootExports(p *gatePkg, pkgs map[string]*gatePkg, usedFrom map[types.Object]map[string]bool) (unused []string, exported int) {
	called := func(obj types.Object) bool {
		for user := range usedFrom[obj] {
			rel := pkgs[user].rel
			if strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/") || strings.HasPrefix(rel, "bench/") {
				return true
			}
		}
		return false
	}
	var names []*ast.Ident
	kept := map[types.Object]bool{}
	// signatures holds the types of the kept functions.
	var signatures []*ast.FuncType
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				names = append(names, d.Name)
				if called(p.info.Defs[d.Name]) {
					kept[p.info.Defs[d.Name]] = true
					signatures = append(signatures, d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					for _, id := range specNames(spec) {
						names = append(names, id)
						kept[p.info.Defs[id]] = called(p.info.Defs[id])
					}
				}
			}
		}
	}
	for _, sig := range signatures {
		ast.Inspect(sig, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if tn, ok := p.info.Uses[id].(*types.TypeName); ok && tn.Pkg() == p.types {
					kept[tn] = true
				}
			}
			return true
		})
	}
	for _, id := range names {
		if !id.IsExported() {
			continue
		}
		exported++
		if !kept[p.info.Defs[id]] {
			unused = append(unused, p.path+"."+id.Name)
		}
	}
	return unused, exported
}

// specNames returns the names a const, var or type spec declares.
func specNames(spec ast.Spec) []*ast.Ident {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	}
	return nil
}

// goList runs `go list -json` with args in dir and returns the packages it
// reports.
func goList(dir string, args ...string) ([]listed, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,Export,Standard,GoFiles"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var l listed
		if err := dec.Decode(&l); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, l)
	}
	return pkgs, nil
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// errorContracts declares the interfaces the errors package asserts on
// without naming them: Error, and the Unwrap, Is and As that errors.Is and
// errors.As look for.
const errorContracts = `package contracts

type (
	withError        interface{ error }
	withUnwrap       interface{ Unwrap() error }
	withMultiUnwrap  interface{ Unwrap() []error }
	withIs           interface{ Is(error) bool }
	withAs           interface{ As(any) bool }
)
`

// reachableInterfaces returns every interface with methods that the module
// can reach: the error contracts and the named interfaces of the module and
// of every package it imports, directly or not.
func reachableInterfaces(fset *token.FileSet, pkgs map[string]*gatePkg) ([]*types.Interface, error) {
	f, err := parser.ParseFile(fset, "contracts.go", errorContracts, 0)
	if err != nil {
		return nil, err
	}
	contracts, err := new(types.Config).Check("contracts", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var collect func(tp *types.Package)
	collect = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, dep := range tp.Imports() {
			collect(dep)
		}
	}
	collect(contracts)
	for _, p := range pkgs {
		collect(p.types)
	}
	return ifaces, nil
}
