package netpart

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyExports names the functions and methods of internal packages
// that no program root reaches, with the reason each stays in
// production code. An entry whose function becomes reachable or is
// gone fails TestExportsHaveProgramCallers, so the list only shrinks.
// An entry may be added only when the guard itself gets stricter and
// finds a function it used to pass.
var testOnlyExports = map[string]string{
	"netsim.NewWithCapacities": "scenario's reference analysis (internal/scenario/reference_test.go) simulates degraded links, " +
		"which need per-link capacities; netsim's own tests use it as well",
	"sched.(*Stepper).Step": "the single-step tests: sched's TestStepperMatchesBatch and, through Engine.Step in " +
		"internal/sched/cluster/export_test.go, cluster's TestLiveContentionTotals",
	"graph.(*Graph).IsRegular": "topo's tests check that the generated topologies are regular; graph's TestIsRegular",
	"graph.(*Graph).Connected": "topo's tests check that the generated topologies are connected; graph's TestConnected",
	"graph.(*Graph).Degree":    "IsRegular calls it, and topo's tests check vertex degrees with it",
}

// exemptMethods are the method names that fmt, errors, net/http and
// encoding/json call through interfaces no program spells out.
var exemptMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true, "UnmarshalJSON": true}

// TestExportsHaveProgramCallers fails when a function or method of an
// internal package, exported or not, is not reachable from a program
// root: only _test.go files, or functions that only they reach, call
// it. The program is every non-test file of the main module and of the
// bench module. The roots are:
//   - main and init of every program package;
//   - the root package's exported functions and methods, and the
//     methods of the types it aliases (importers call them through the
//     facade);
//   - methods that implement an interface the programs use, and
//     exemptMethods;
//   - package-level variable initializers.
//
// A function is reachable when a root or a reachable function refers
// to it, so a chain of functions that only tests reach is caught
// whole, not just at its head.
func TestExportsHaveProgramCallers(t *testing.T) {
	prog := loadProgram(t)
	reached := prog.reachable()

	var offenders []string // in package, file and line order
	candidates := make(map[string]bool)
	for _, path := range prog.order {
		if !strings.HasPrefix(path, "netpart/internal/") {
			continue
		}
		rel := strings.TrimPrefix(path, "netpart/internal/")
		for _, f := range prog.files[path] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				fn := prog.info.Defs[fd.Name].(*types.Func)
				name := rel + "." + funcName(fn)
				candidates[name] = true
				reason, allowed := testOnlyExports[name]
				switch {
				case reached[fn] && allowed:
					t.Errorf("%s: %s is reachable from a program root; remove its testOnlyExports entry (%q)", prog.fset.Position(fd.Pos()), name, reason)
				case !reached[fn] && !allowed:
					offenders = append(offenders, fmt.Sprintf("\t%s: %s\n", prog.fset.Position(fd.Pos()), name))
				}
			}
		}
	}
	for name := range testOnlyExports {
		if !candidates[name] {
			t.Errorf("testOnlyExports names %s, which is not a function or method of an internal package", name)
		}
	}
	if len(offenders) > 0 {
		t.Errorf("%d functions or methods of internal packages are reachable only from _test.go files:\n%s"+
			"Give each a program caller that replaces code doing the same job, delete it with the tests that check only it, "+
			"or move it into its package's _test.go files.", len(offenders), strings.Join(offenders, ""))
	}
}

// reachable returns every function that a program root refers to,
// directly or through reachable functions. A function with no body in
// the program (the standard library's, an interface's method) is
// reached but refers to nothing.
func (p *program) reachable() map[*types.Func]bool {
	facade := p.facadeMethods()
	ifaces := p.usedInterfaces()
	decls := make(map[*types.Func]*ast.FuncDecl)
	var work []ast.Node // roots, then the bodies of newly reached functions
	reached := make(map[*types.Func]bool)
	for _, path := range p.order {
		for _, f := range p.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						work = append(work, d)
					}
				case *ast.FuncDecl:
					fn, _ := p.info.Defs[d.Name].(*types.Func)
					decls[fn] = d
					name := d.Name.Name
					if d.Recv == nil && (name == "init" || name == "main" && f.Name.Name == "main") ||
						path == "netpart" && d.Name.IsExported() ||
						d.Recv != nil && (exemptMethods[name] || facade[fn] || implementsUsed(fn, ifaces)) {
						reached[fn] = true
						work = append(work, d)
					}
				}
			}
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(n, func(n ast.Node) bool {
			var obj types.Object
			switch n := n.(type) {
			case *ast.Ident:
				obj = p.info.Uses[n]
			case *ast.SelectorExpr:
				if sel, ok := p.info.Selections[n]; ok {
					obj = sel.Obj()
				}
			}
			fn, ok := obj.(*types.Func)
			if !ok {
				return true
			}
			fn = fn.Origin()
			if !reached[fn] {
				reached[fn] = true
				if d, ok := decls[fn]; ok {
					work = append(work, d)
				}
			}
			return true
		})
	}
	return reached
}

// funcName renders a function as Name and a method as T.Name or
// (*T).Name.
func funcName(fn *types.Func) string {
	recv := fn.Signature().Recv()
	if recv == nil {
		return fn.Name()
	}
	typ := recv.Type()
	ptr, isPtr := typ.(*types.Pointer)
	if isPtr {
		typ = ptr.Elem()
	}
	named := typ.(*types.Named).Obj().Name()
	if isPtr {
		return "(*" + named + ")." + fn.Name()
	}
	return named + "." + fn.Name()
}

// implementsUsed reports whether method fn's receiver type, or a
// pointer to it, implements an interface in ifaces that has a method
// of fn's name.
func implementsUsed(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named := recv.(*types.Named)
	if named.TypeParams().Len() > 0 {
		return false // Implements is unspecified for uninstantiated types
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
	}
	return false
}

// program is every non-test package of the main and bench modules,
// type-checked from source.
type program struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	order []string // import paths, sorted
	info  *types.Info
	errs  []error
}

// loadProgram parses every non-test .go file outside testdata/ and
// dot-directories and type-checks every package. A directory's import
// path is netpart/ and its path, which holds for the bench module
// (netpart/bench) too. netpart/... imports resolve to the parsed
// packages and the rest to the standard library's source.
func loadProgram(t *testing.T) *program {
	t.Helper()
	// Declarations are all the guard reads: with cgo off the standard
	// library type-checks from its pure-Go files and needs no C compiler.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	p := &program{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		files: make(map[string][]*ast.File),
		pkgs:  make(map[string]*types.Package),
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := "netpart"
		if dir != "." {
			imp += "/" + filepath.ToSlash(dir)
		}
		p.files[imp] = append(p.files[imp], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p.order = slices.Sorted(maps.Keys(p.files))
	for _, imp := range p.order {
		p.check(imp)
	}
	for _, err := range p.errs {
		t.Error(err)
	}
	if len(p.errs) > 0 {
		t.FailNow()
	}
	return p
}

// Import resolves a parsed package by type-checking it, and anything
// else from the standard library.
func (p *program) Import(path string) (*types.Package, error) {
	if _, ok := p.files[path]; ok {
		return p.check(path), nil
	}
	return p.std.Import(path)
}

func (p *program) check(path string) *types.Package {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg
	}
	conf := types.Config{Importer: p, Error: func(err error) { p.errs = append(p.errs, err) }}
	pkg, _ := conf.Check(path, p.fset, p.files[path], p.info)
	p.pkgs[path] = pkg
	return pkg
}

// facadeMethods returns the method sets, promoted methods included, of
// the types the root package aliases.
func (p *program) facadeMethods() map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	for _, f := range p.files["netpart"] {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				if !ts.Assign.IsValid() {
					continue
				}
				named, ok := types.Unalias(p.info.Defs[ts.Name].Type()).(*types.Named)
				if !ok {
					continue
				}
				ms := types.NewMethodSet(types.NewPointer(named))
				for i := 0; i < ms.Len(); i++ {
					out[ms.At(i).Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	return out
}

// usedInterfaces returns every interface type that appears in the
// programs: as the type of an expression or of a function's
// parameter or result.
func (p *program) usedInterfaces() []*types.Interface {
	seen := make(map[types.Type]bool)
	var out []*types.Interface
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named:
			if iface, ok := u.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				out = append(out, iface)
			}
		case *types.Alias:
			walk(types.Unalias(u))
		case *types.Interface:
			if u.NumMethods() > 0 {
				out = append(out, u)
			}
		case *types.Pointer:
			walk(u.Elem())
		case *types.Slice:
			walk(u.Elem())
		case *types.Array:
			walk(u.Elem())
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		case *types.Chan:
			walk(u.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					walk(tuple.At(i).Type())
				}
			}
		}
	}
	for _, tv := range p.info.Types {
		walk(tv.Type)
	}
	return out
}
