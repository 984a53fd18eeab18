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

// exportAllow lists the exported functions and methods under internal/ that
// TestNoTestOnlyExports accepts without a non-test caller, each for one of
// the two reasons the gate allows: the root filterdir API re-exports it and
// filterdir_test.go calls it there, or it is a cross-package test seam that
// no production accessor can replace. Names are as the gate prints them.
var exportAllow = []allowed{
	{"internal/ldapnet.Client.Bind", "root re-export: filterdir.Client binds"},
	{"internal/metrics.Figure.SeriesByName", "root re-export: a filterdir.Figure's series by name"},
	{"internal/replica.SubtreeReplica.Metrics", "root re-export: a filterdir.SubtreeReplica's hit counters"},
	{"internal/chaos.Injector.SetPlan", "test seam: the supervisor and cascade tests change a running injector's fault plan"},
	{"internal/chaos.Injector.RefuseFor", "test seam: the supervisor and cascade tests refuse dials for a window"},
	{"internal/dit.Store.ActiveHolds", "test seam: the resync and supervisor tests check every reload snapshot hold was released"},
	{"internal/entry.Entry.Frozen", "test seam: the dit, replica and resync tests check that what they publish is frozen"},
}

// allowed is one exportAllow entry.
type allowed struct{ name, reason string }

// TestNoTestOnlyExports is the production-code gate: every exported function
// or method declared in a non-test file under internal/ must be referenced
// by some non-test file of the module (cmd/, examples/, bench/, the root
// package or internal/ itself). Code that only tests reach belongs in a
// _test.go file, or in a test helper package (a package whose name ends in
// "test", such as dntest). A With* option needs a non-test caller outside
// its own package: an option only the package itself sets is a mode no
// deployment selects.
func TestNoTestOnlyExports(t *testing.T) {
	flagged, err := testOnlyExports(".", exportAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flagged {
		t.Errorf("%s: no non-test caller; delete it, move it into a _test.go file or to the package that uses it", f)
	}
}

// TestExportGateFixture runs the gate over a fixture module that plants one
// case of each rule and checks that exactly the two that break a rule are
// flagged: an export only a test calls and a With* option only its own
// package calls. A method that satisfies an interface, an export only
// bench/ calls and an allow-listed export pass; an allow-list entry for an
// export with a caller fails the gate.
func TestExportGateFixture(t *testing.T) {
	allow := []allowed{{"internal/lib.Allowed", "fixture: an allow-listed export"}}
	flagged, err := testOnlyExports(filepath.Join("testdata", "exportgate"), allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/lib.OnlyTested", "internal/lib.WithOwnOnly"}
	if strings.Join(flagged, " ") != strings.Join(want, " ") {
		t.Fatalf("flagged %q, want %q", flagged, want)
	}
	// An entry for an export that has a caller is stale, and an error.
	allow = append(allow, allowed{"internal/lib.OnlyBench", "fixture: stale"})
	if _, err := testOnlyExports(filepath.Join("testdata", "exportgate"), allow); err == nil {
		t.Error("a stale allow-list entry passed")
	}
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
// exported functions and methods under internal/ that break the rule
// TestNoTestOnlyExports states and that allow does not list. An allow entry
// that names nothing the rule flags is an error: the list only shrinks.
func testOnlyExports(root string, allow []allowed) ([]string, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	// Every package the module builds, each after its dependencies.
	deps, err := goList(root, "-deps", "./...")
	if err != nil {
		return nil, err
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
		return nil, err
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
			return nil, err
		}
		p := &gatePkg{path: l.ImportPath, rel: filepath.ToSlash(rel), info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}}
		for _, name := range l.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(l.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		if p.types, err = (&types.Config{Importer: imp}).Check(p.path, fset, p.files, p.info); err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.path, err)
		}
		pkgs[p.path] = p
		paths = append(paths, p.path)
	}

	// usedFrom records, per object, the packages whose non-test files
	// reference it.
	usedFrom := map[types.Object]map[string]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if usedFrom[fn] == nil {
				usedFrom[fn] = map[string]bool{}
			}
			usedFrom[fn][p.path] = true
		}
	}

	// viaIface holds the methods some interface reaches: for every named type
	// of the module whose value or pointer implements an interface in reach,
	// the methods its method set selects for that interface's names. Such a
	// method may have no direct caller yet run through the interface, and
	// that covers methods an embedding type promotes.
	ifaces, err := reachableInterfaces(fset, pkgs)
	if err != nil {
		return nil, err
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
		if !strings.HasPrefix(p.rel, "internal/") || strings.HasSuffix(p.types.Name(), "test") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
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
			return nil, fmt.Errorf("allow-list entry %s names nothing the gate flags: remove it", a.name)
		}
		allowedNames[a.name] = true
	}
	var flagged []string
	for _, name := range unused {
		if !allowedNames[name] {
			flagged = append(flagged, name)
		}
	}
	sort.Strings(flagged)
	return flagged, nil
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
