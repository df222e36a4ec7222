package corp

// The surface gate (ROADMAP item 4): nothing stays in a non-test file under
// internal/ that only tests reach. A declaration stays iff a figure, CLI
// flag, example or bench workload executes it. The test type-checks the
// module from source with the standard library alone, walks what the
// packages outside internal/ can reach — this façade with the exported
// methods of the types it aliases, cmd/*, examples/*, bench/, non-test
// files only — and fails on every function, type, variable, constant or
// method under internal/, exported or not, the walk never touched.
//
// A method is reached by a direct reference, or through an interface: its
// receiver type is reached, the type satisfies an interface in play, and
// that interface's method is called from reached code. In play are the
// interface literals (sim's finalize asserts rs.sched to an anonymous
// interface{ TrainErrors() int }) and named interfaces of reached module
// code, and every interface declared by a standard-library package the
// module links, whose methods count as called (fmt calls String, sort calls
// Less). Files a build constraint excludes on this host are not examined.

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
	"strings"
	"testing"
)

const surfaceModule = "repro"

// surfaceExempt lists the identifiers that stay although only tests reach
// them. An entry that is reachable, or no longer declared, is
// stale and fails the test like a new dead export does.
var surfaceExempt = map[string]string{
	"trace.ReadCSV":  "the validating, fuzzed reader of what cmd/tracegen -format csv writes",
	"trace.ReadJSON": "the validating, fuzzed reader of what cmd/tracegen -format json writes",
}

type surfacePkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

type surfaceDecl struct {
	node ast.Node
	info *types.Info // of the declaring package
}

// surfaceWalk loads the module and propagates reachability.
type surfaceWalk struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*surfacePkg
	decl  map[types.Object]surfaceDecl // package-level object or method → declaration
	live  map[types.Object]bool
	work  []types.Object
	grew  bool               // a pass over types × interfaces marked something new
	named []*types.TypeName  // reached module types
	ifcs  []*types.Interface // interfaces in play
	seen  map[*types.Interface]bool
}

// Import type-checks module packages from source, once each, so every
// package sees the same objects; everything else is the standard library's.
func (w *surfaceWalk) Import(path string) (*types.Package, error) {
	if path != surfaceModule && !strings.HasPrefix(path, surfaceModule+"/") {
		return w.std.Import(path)
	}
	if p, ok := w.pkgs[path]; ok {
		return p.types, nil
	}
	dir := filepath.Join(".", strings.TrimPrefix(path, surfaceModule))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &surfacePkg{info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(w.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: w}
	if p.types, err = conf.Check(path, w.fset, p.files, p.info); err != nil {
		return nil, err
	}
	w.pkgs[path] = p
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				w.declare(p, d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						w.declare(p, spec.Name, spec)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							w.declare(p, name, spec)
						}
					}
				}
			}
		}
	}
	return p.types, nil
}

func (w *surfaceWalk) declare(p *surfacePkg, name *ast.Ident, node ast.Node) {
	if obj := p.info.Defs[name]; obj != nil {
		w.decl[obj] = surfaceDecl{node, p.info}
		if name.Name == "init" { // runs whenever the package is linked
			w.mark(obj)
		}
	}
}

func (w *surfaceWalk) mark(obj types.Object) {
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin()
	}
	if w.live[obj] {
		return
	}
	w.live[obj], w.grew = true, true
	if w.decl[obj].node == nil {
		return
	}
	w.work = append(w.work, obj)
	if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
		w.named = append(w.named, tn)
		if ifc, ok := tn.Type().Underlying().(*types.Interface); ok {
			w.play(ifc)
		}
	}
}

func (w *surfaceWalk) play(ifc *types.Interface) {
	if ifc.NumMethods() > 0 && !w.seen[ifc] {
		w.seen[ifc] = true
		w.ifcs = append(w.ifcs, ifc)
	}
}

// scan marks everything the syntax under node refers to.
func (w *surfaceWalk) scan(info *types.Info, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				w.mark(obj)
			}
		case *ast.InterfaceType:
			if ifc, ok := info.Types[n].Type.(*types.Interface); ok {
				w.play(ifc)
			}
		}
		return true
	})
}

// called reports whether reached code invokes the interface method; a
// standard-library interface's methods are invoked by its package.
func (w *surfaceWalk) called(m *types.Func) bool {
	return w.live[m] || m.Pkg() == nil || w.pkgs[m.Pkg().Path()] == nil
}

// propagate runs the walk to its fixed point.
func (w *surfaceWalk) propagate() {
	for {
		for len(w.work) > 0 {
			obj := w.work[len(w.work)-1]
			w.work = w.work[:len(w.work)-1]
			w.scan(w.decl[obj].info, w.decl[obj].node)
		}
		w.grew = false
		for _, tn := range w.named {
			recv := tn.Type()
			if !types.IsInterface(recv) {
				recv = types.NewPointer(recv)
			}
			for _, ifc := range w.ifcs {
				if !types.Implements(recv, ifc) {
					continue
				}
				for i := 0; i < ifc.NumMethods(); i++ {
					if m := ifc.Method(i); w.called(m) {
						if obj, _, _ := types.LookupFieldOrMethod(recv, false, m.Pkg(), m.Name()); obj != nil {
							w.mark(obj)
						}
					}
				}
			}
		}
		if !w.grew {
			return
		}
	}
}

func TestInternalSurfaceReachable(t *testing.T) {
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false // type-check net's pure-Go files: no C toolchain needed
	defer func() { build.Default.CgoEnabled = cgo }()

	fset := token.NewFileSet()
	w := &surfaceWalk{
		fset: fset, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*surfacePkg{}, decl: map[types.Object]surfaceDecl{},
		live: map[types.Object]bool{}, seen: map[*types.Interface]bool{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name[0] == '.' || name[0] == '_' || name == "testdata") {
			return filepath.SkipDir
		}
		_, err = w.Import(strings.TrimSuffix(surfaceModule+"/"+filepath.ToSlash(path), "/."))
		if _, noGo := err.(*build.NoGoError); noGo {
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Interfaces of the linked standard library, and error.
	w.play(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	linked := map[*types.Package]bool{}
	var link func(p *types.Package)
	link = func(p *types.Package) {
		if linked[p] {
			return
		}
		linked[p] = true
		for _, imp := range p.Imports() {
			link(imp)
		}
		if w.pkgs[p.Path()] != nil {
			return
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if ifc, ok := tn.Type().Underlying().(*types.Interface); ok {
					w.play(ifc)
				}
			}
		}
	}

	// Roots: every declaration outside internal/, and the exported methods
	// of the types the façade aliases.
	type ident struct {
		name   string
		obj    types.Object
		within types.Object // the type a method belongs to
	}
	var idents []ident
	for path, p := range w.pkgs {
		link(p.types)
		scope := p.types.Scope()
		if !strings.Contains(path, "/internal/") {
			for _, f := range p.files {
				w.scan(p.info, f)
			}
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() || path != surfaceModule {
					continue
				}
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					w.mark(named.Obj())
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() {
							w.mark(m)
						}
					}
				}
			}
			continue
		}
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			idents = append(idents, ident{p.types.Name() + "." + name, obj, nil})
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			var methods []*types.Func
			switch u := tn.Type().(*types.Named); ifc := u.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < ifc.NumExplicitMethods(); i++ {
					methods = append(methods, ifc.ExplicitMethod(i))
				}
			default:
				for i := 0; i < u.NumMethods(); i++ {
					methods = append(methods, u.Method(i))
				}
			}
			for _, m := range methods {
				idents = append(idents, ident{p.types.Name() + "." + name + "." + m.Name(), m, obj})
			}
		}
	}
	w.propagate()

	var bad []string
	declared := map[string]bool{}
	for _, id := range idents {
		declared[id.name] = true
		if _, ok := surfaceExempt[id.name]; ok {
			if w.live[id.obj] {
				bad = append(bad, "stale exemption (reachable without it): "+id.name)
			}
			w.mark(id.obj)
		}
	}
	for name := range surfaceExempt {
		if !declared[name] {
			bad = append(bad, "stale exemption (no longer declared): "+name)
		}
	}
	if len(surfaceExempt) > 10 {
		bad = append(bad, "more than 10 exemptions: delete code, not the gate")
	}
	w.propagate()
	for _, id := range idents {
		if !w.live[id.obj] && (id.within == nil || w.live[id.within]) {
			bad = append(bad, fset.Position(id.obj.Pos()).Filename+": "+id.name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		t.Errorf("%d problems with the internal/ surface. An identifier, exported or not, that no figure, CLI, "+
			"example or bench workload reaches is deleted with its tests or, where a test needs it as the reference "+
			"for reachable code or to assemble state, moved into that package's _test.go; a stale exemption is "+
			"removed:\n%s",
			len(bad), strings.Join(bad, "\n"))
	}
}
