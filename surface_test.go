package ghostdb

// The surface audit: every exported name in internal/... has a caller.
// It parses and type-checks the whole repository — every package with
// its tests, cmd/, examples/ and the nested benchmark/ module — with
// go/parser and go/types (the standard library through the "source"
// importer) and fails on an exported package-level name or concrete
// method of an internal package that nothing references.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// surfaceAllowed lists exported internal names the audit keeps although
// nothing in the repository references them, each with its reason.
// Keys are "importpath.Name" or "importpath.Type.Method".
var surfaceAllowed = map[string]string{}

const surfaceModule = "github.com/ghostdb/ghostdb"

// surfacePkg is one directory's files, split as the go tool splits them.
type surfacePkg struct {
	path                string
	prod, inTest, xTest []*ast.File
}

// surfaceLoader type-checks repository packages on demand; the standard
// library comes from one shared source importer.
type surfaceLoader struct {
	fset  *token.FileSet
	dirs  map[string]*surfacePkg // by import path
	std   types.Importer
	prod  map[string]*types.Package
	uses  map[string]bool // keys of every object referenced anywhere
	ifces []*types.Interface
	seen  map[*types.Package]bool // packages whose interfaces are collected
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.prod[path]; ok {
		return p, nil
	}
	if sp, ok := l.dirs[path]; ok && len(sp.prod) > 0 {
		p := l.check(path, sp.prod, l)
		l.prod[path] = p
		return p, nil
	}
	p, err := l.std.Import(path)
	if err == nil {
		l.collectInterfaces(p)
	}
	return p, err
}

// overlay imports one package's test variant in place of its production
// form, for the package's external tests.
type overlay struct {
	*surfaceLoader
	path string
	pkg  *types.Package
}

func (o overlay) Import(path string) (*types.Package, error) {
	if path == o.path {
		return o.pkg, nil
	}
	return o.surfaceLoader.Import(path)
}

// check type-checks files as package path and records every object they
// reference. Type errors are tolerated: a test variant may mix its own
// types with the production form another package imported.
func (l *surfaceLoader) check(path string, files []*ast.File, imp types.Importer) *types.Package {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp, Error: func(error) {}}
	pkg, _ := conf.Check(path, l.fset, files, info)
	for _, obj := range info.Uses {
		if k := surfaceKey(obj); k != "" {
			l.uses[k] = true
		}
	}
	l.collectInterfaces(pkg)
	return pkg
}

// collectInterfaces remembers every named interface of pkg and of the
// packages it imports.
func (l *surfaceLoader) collectInterfaces(pkg *types.Package) {
	if pkg == nil || l.seen[pkg] {
		return
	}
	l.seen[pkg] = true
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				l.ifces = append(l.ifces, it)
			}
		}
	}
	for _, imp := range pkg.Imports() {
		l.collectInterfaces(imp)
	}
}

// surfaceKey names a package-level object or a method across the
// production form and the test variant of its package; "" for anything
// else (locals, fields, universe objects).
func surfaceKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			if n := surfaceNamed(recv.Type()); n != nil {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func surfaceNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

// satisfiesInterface reports whether m's receiver type implements a
// collected interface that declares m.
func (l *surfaceLoader) satisfiesInterface(n *types.Named, m *types.Func) bool {
	for _, it := range l.ifces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != m.Name() {
				continue
			}
			if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
				return true
			}
		}
	}
	return false
}

// loadSurface parses every package under root and type-checks it with
// its tests.
func loadSurface(t *testing.T, root string) *surfaceLoader {
	t.Helper()
	fset := token.NewFileSet()
	l := &surfaceLoader{
		fset: fset,
		dirs: map[string]*surfacePkg{},
		std:  importer.ForCompiler(fset, "source", nil),
		prod: map[string]*types.Package{},
		uses: map[string]bool{},
		seen: map[*types.Package]bool{},
	}
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		sp := &surfacePkg{path: surfaceModule}
		if rel != "." {
			sp.path += "/" + filepath.ToSlash(rel)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			switch {
			case !strings.HasSuffix(name, "_test.go"):
				sp.prod = append(sp.prod, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				sp.xTest = append(sp.xTest, f)
			default:
				sp.inTest = append(sp.inTest, f)
			}
		}
		if len(sp.prod)+len(sp.inTest)+len(sp.xTest) > 0 {
			l.dirs[sp.path] = sp
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		sp := l.dirs[p]
		if len(sp.prod) > 0 {
			l.Import(p)
		}
		variant := l.prod[p]
		if len(sp.inTest) > 0 {
			variant = l.check(p, append(slices.Clip(sp.prod), sp.inTest...), l)
		}
		if len(sp.xTest) > 0 {
			l.check(p+"_test", sp.xTest, overlay{l, p, variant})
		}
	}
	return l
}

// TestSurfaceAudit fails on an exported name in internal/... that
// nothing in the repository references. A method counts as referenced
// when its type satisfies a repository or standard-library interface
// that declares it (a String, a Next / Close, the storage.Medium set).
func TestSurfaceAudit(t *testing.T) {
	l := loadSurface(t, ".")
	var unused []string
	for path, pkg := range l.prod {
		if !strings.Contains(path+"/", "/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !l.uses[surfaceKey(obj)] {
				unused = append(unused, surfaceKey(obj))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				if !m.Exported() || l.uses[surfaceKey(m)] || l.satisfiesInterface(n, m) {
					continue
				}
				unused = append(unused, surfaceKey(m))
			}
		}
	}
	slices.Sort(unused)
	for _, k := range unused {
		if _, ok := surfaceAllowed[k]; !ok {
			t.Errorf("exported but never referenced: %s", k)
		}
	}
	for k := range surfaceAllowed {
		if !slices.Contains(unused, k) {
			t.Errorf("allow-list entry %s is referenced now (or gone); drop it", k)
		}
	}
}
