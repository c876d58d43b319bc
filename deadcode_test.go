// deadcode_test.go guards against code nothing calls: every exported
// function, method, type, var or const declared under internal/ must be
// used by some non-test file of the module (internal/, cmd/, examples/
// or the nested bench/ module) outside its own declaration, and every
// unexported function or method outside bench/ by some non-test file of
// its own package. Tests do not count as callers, so code kept alive
// only by its own tests fails here. The non-test files are type-checked
// (go/types; the standard library from source), with the build
// constraints of the host applied, so a use is an identifier that
// resolves to the declaration, not one that merely spells its name. A
// method also counts as used when an interface reaches it: its type
// implements an interface of the program whose method is used somewhere,
// or any interface the standard library declares (error, fmt.Stringer,
// io.Closer), whose methods the library itself calls.
package main

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadcodeAllowed names the exported declarations the scan may flag,
// each with the reason it stays. A key is "Recv.Name" for one method or
// a bare "Name" for every declaration of that name. An entry that stops
// matching a flagged declaration fails the test, so the list stays short.
var deadcodeAllowed = map[string]string{
	"Unwrap":             "called through errors.Is and errors.As, never by name",
	"Collector.Snapshot": "the tests' only way to read a whole collector; no exported equivalent",
	"Enabled":            "raceflag exists for the tests: the allocation counts skip under the race detector",
	"Engine.Pending":     "the sim fuzz tests and grid's drained-run test count live events with it; grid cannot see a sim test helper",
	"Timers.Pending":     "the sim timer tests and grid's drained-run test count armed timers with it; grid cannot see a sim test helper",
}

// unexportedAllowed names the unexported functions and methods the scan
// may flag, each with the reason it stays, keyed "pkg.Name" or
// "pkg.Recv.Name". An entry that stops matching fails the test.
var unexportedAllowed = map[string]string{
	"sim.Engine.checkInvariant": "the heap invariant check the sim fuzz and heap tests call after every operation",
}

// deadcodeRoots are the trees whose non-test files count as callers.
var deadcodeRoots = []string{"internal", "cmd", "examples", "bench"}

type decl struct {
	key, file  string
	line       int
	obj        types.Object
	start, end token.Pos
}

// program is the type-checked non-test source of the module, keyed by
// import path ("apstdv/" + directory: the nested bench module's path is
// apstdv/bench, so one rule covers both modules).
type program struct {
	fset  *token.FileSet
	dirs  map[string]string // import path → directory
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
}

// Import type-checks a package of the program on first use and hands
// every other path to the standard library's source importer.
func (p *program) Import(path string) (*types.Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	if _, ok := p.dirs[path]; !ok {
		return p.std.Import(path)
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, p.files[path], p.info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = pkg
	return pkg, nil
}

// loadProgram parses every buildable non-test file under the roots and
// type-checks each package.
func loadProgram(t *testing.T) *program {
	// Type-check the standard library's pure-Go files: its cgo files
	// would need the C toolchain.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
	fset := token.NewFileSet()
	p := &program{
		fset: fset, dirs: map[string]string{}, files: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		std:  importer.ForCompiler(fset, "source", nil),
	}
	for _, root := range deadcodeRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			bp, err := build.Default.ImportDir(path, 0)
			if _, none := err.(*build.NoGoError); none {
				return nil
			} else if err != nil {
				return err
			}
			ip := "apstdv/" + filepath.ToSlash(path)
			p.dirs[ip] = path
			for _, name := range bp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				p.files[ip] = append(p.files[ip], f)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for ip := range p.dirs {
		if _, err := p.Import(ip); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// iface is an interface the program's methods may be reached through,
// with the methods that count: all of a standard library interface's,
// and the used ones of the program's own.
type iface struct {
	typ  *types.Interface
	live []*types.Func
}

// interfaces gathers every interface whose methods reach implementations:
// the exported interfaces of every standard library package the program
// imports directly or not, plus error, and every interface type the
// program writes, named or literal, keeping the methods uses name.
func (p *program) interfaces(uses map[types.Object][]token.Pos) []iface {
	var out []iface
	add := func(it *types.Interface, std bool) {
		var live []*types.Func
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if std || len(uses[m]) > 0 || m.Pkg() == nil || p.dirs[m.Pkg().Path()] == "" {
				live = append(live, m)
			}
		}
		if len(live) > 0 {
			out = append(out, iface{it, live})
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), true)
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if _, ours := p.dirs[pkg.Path()]; !ours {
			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					if it, ok := named.Underlying().(*types.Interface); ok {
						add(it, true)
					}
				}
			}
		}
		for _, dep := range pkg.Imports() {
			visit(dep)
		}
	}
	for _, pkg := range p.pkgs {
		visit(pkg)
	}
	for ip := range p.dirs {
		for _, f := range p.files[ip] {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if typ, ok := p.info.Types[it].Type.(*types.Interface); ok {
						add(typ, false)
					}
				}
				return true
			})
		}
	}
	return out
}

// reachedByInterface returns the methods some interface reaches: for
// each named type of the program that implements an interface, directly
// or through its pointer, the methods its method set selects for the
// interface's live methods (promoted ones included).
func (p *program) reachedByInterface(ifaces []iface) map[types.Object]bool {
	reached := map[types.Object]bool{}
	for _, pkg := range p.pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			if mset.Len() == 0 {
				continue
			}
			for _, it := range ifaces {
				// A cheap name check first: most interfaces share no
				// method with most types.
				if mset.Lookup(it.live[0].Pkg(), it.live[0].Name()) == nil {
					continue
				}
				if !types.Implements(named, it.typ) && !types.Implements(ptr, it.typ) {
					continue
				}
				for _, m := range it.live {
					if obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name()); obj != nil {
						reached[origin(obj)] = true
					}
				}
			}
		}
	}
	return reached
}

// origin maps an instantiated method to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

func TestNoUncalledExportedCode(t *testing.T) {
	p := loadProgram(t)
	fset := p.fset
	uses := map[types.Object][]token.Pos{}
	for id, obj := range p.info.Uses {
		obj = origin(obj)
		uses[obj] = append(uses[obj], id.Pos())
	}
	reached := p.reachedByInterface(p.interfaces(uses))

	var decls, unexported []decl
	for ip, files := range p.files {
		dir := p.dirs[ip]
		internal := strings.HasPrefix(filepath.ToSlash(dir), "internal/")
		// The frozen benchmark module is a caller, not scanned code.
		benchmark := strings.HasPrefix(filepath.ToSlash(dir)+"/", "bench/")
		for _, f := range files {
			path := fset.File(f.Pos()).Name()
			add := func(id *ast.Ident, recv string, node ast.Node) {
				if !internal || !id.IsExported() {
					return
				}
				key := id.Name
				if recv != "" {
					key = recv + "." + key
				}
				decls = append(decls, decl{key, path, fset.Position(id.Pos()).Line, p.info.Defs[id], node.Pos(), node.End()})
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, receiverName(d), d)
					if name := d.Name.Name; !benchmark && !d.Name.IsExported() && name != "init" && name != "main" && name != "_" {
						key := f.Name.Name + "."
						if recv := receiverName(d); recv != "" {
							key += recv + "."
						}
						unexported = append(unexported, decl{key + name, path, fset.Position(d.Name.Pos()).Line, p.info.Defs[d.Name], d.Pos(), d.End()})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, "", s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, "", s)
							}
						}
					}
				}
			}
		}
	}
	used := func(d decl) bool {
		return reached[d.obj] || usedOutside(uses[d.obj], d.start, d.end)
	}

	var dead []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if used(d) {
			continue
		}
		name := lastName(d.key)
		if _, ok := deadcodeAllowed[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		if _, ok := deadcodeAllowed[name]; ok {
			allowed[name] = true
			continue
		}
		dead = append(dead, d.file+":"+strconv.Itoa(d.line)+": "+d.key)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but no non-test file uses it; call it, delete it, or allowlist it with a reason", d)
	}
	for key := range deadcodeAllowed {
		if !allowed[key] {
			t.Errorf("allowlisted %s is no longer flagged; drop it from deadcodeAllowed", key)
		}
	}

	dead = dead[:0]
	clear(allowed)
	for _, d := range unexported {
		if used(d) {
			continue
		}
		if _, ok := unexportedAllowed[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		dead = append(dead, d.file+":"+strconv.Itoa(d.line)+": "+d.key)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is unexported but no non-test file of its package uses it; call it, delete it, move it into the tests, or allowlist it with a reason", d)
	}
	for key := range unexportedAllowed {
		if !allowed[key] {
			t.Errorf("allowlisted %s is no longer flagged; drop it from unexportedAllowed", key)
		}
	}
}

// usedOutside reports whether any use lies outside [start, end), the
// declaration's own span: a recursive call does not keep a function alive.
func usedOutside(uses []token.Pos, start, end token.Pos) bool {
	for _, p := range uses {
		if p < start || p >= end {
			return true
		}
	}
	return false
}

func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	typ := d.Recv.List[0].Type
	for {
		switch t := typ.(type) {
		case *ast.StarExpr:
			typ = t.X
		case *ast.IndexExpr:
			typ = t.X
		case *ast.IndexListExpr:
			typ = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

func lastName(key string) string {
	return key[strings.LastIndexByte(key, '.')+1:]
}
