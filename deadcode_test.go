// deadcode_test.go guards against code nothing calls: every exported
// function, method, type, var or const declared under internal/ must be
// named by some non-test file of the module (internal/, cmd/, examples/
// or the nested bench/ module) outside its own declaration, and every
// unexported function or method outside bench/ by some non-test file of
// its own package. Tests do not count as callers, so code kept alive
// only by its own tests fails here. It parses source with go/parser and
// resolves nothing, so a name counts as used wherever an identifier
// spells it.
package main

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	start, end token.Pos
}

func TestNoUncalledExportedCode(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, root := range deadcodeRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Declaring identifiers are not uses; every other identifier is.
	declNames := map[*ast.Ident]bool{}
	var decls, unexported []decl
	for _, f := range files {
		path := fset.File(f.Pos()).Name()
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		// The frozen benchmark module is a caller, not scanned code.
		benchmark := strings.HasPrefix(filepath.ToSlash(path), "bench/")
		add := func(id *ast.Ident, recv string, node ast.Node) {
			declNames[id] = true
			if !internal || !id.IsExported() {
				return
			}
			key := id.Name
			if recv != "" {
				key = recv + "." + key
			}
			decls = append(decls, decl{key, path, fset.Position(id.Pos()).Line, node.Pos(), node.End()})
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
					unexported = append(unexported, decl{key + name, path, fset.Position(d.Name.Pos()).Line, d.Pos(), d.End()})
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
	uses := map[string][]token.Pos{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	}

	var dead []string
	allowed := map[string]bool{}
	for _, d := range decls {
		name := lastName(d.key)
		if usedOutside(uses[name], d.start, d.end) {
			continue
		}
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
		t.Errorf("%s is exported but no non-test file names it; call it, delete it, or allowlist it with a reason", d)
	}
	for key := range deadcodeAllowed {
		if !allowed[key] {
			t.Errorf("allowlisted %s is no longer flagged; drop it from deadcodeAllowed", key)
		}
	}

	// An unexported function counts as used only where its own package
	// names it: the uses in non-test files of the same directory.
	dead = dead[:0]
	clear(allowed)
	for _, d := range unexported {
		var local []token.Pos
		for _, p := range uses[lastName(d.key)] {
			if filepath.Dir(fset.File(p).Name()) == filepath.Dir(d.file) {
				local = append(local, p)
			}
		}
		if usedOutside(local, d.start, d.end) {
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
		t.Errorf("%s is unexported but no non-test file of its package names it; call it, delete it, move it into the tests, or allowlist it with a reason", d)
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
