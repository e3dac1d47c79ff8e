package cwcs

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestEveryDeclarationHasACaller type-checks every non-test package of
// the repository (internal/, cmd/, examples/, bench/ and the root) and
// fails on any package-level func, type, var or const, or method,
// declared in a non-test file under internal/ that no non-test file
// uses. A method's own receiver is not a use. Every exported struct
// field must be referenced, and, unless its struct carries json tags
// (decoded by reflection), written by some non-test code: a keyed or
// positional literal, an assignment, ++/-- or &.
func TestEveryDeclarationHasACaller(t *testing.T) {
	l := loadRepo(t)
	offenders := map[string]string{} // name -> what it lacks
	for _, d := range l.decls {
		if !l.used[d.obj] && !l.exempt(d) {
			offenders[d.name] = "no caller"
		}
	}
	for _, f := range l.fields {
		switch {
		case !l.used[f.obj]:
			offenders[f.name] = "field never referenced"
		case !f.tagged && !l.written[f.obj]:
			offenders[f.name] = "field never set"
		}
	}
	var bad, stale []string
	for name, why := range offenders {
		if _, ok := testSeams[name]; !ok {
			bad = append(bad, name+" ("+why+")")
		}
	}
	// An allowlisted name must still exist and still lack a production
	// caller, or the entry goes.
	for name := range testSeams {
		if _, ok := offenders[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(bad)
	sort.Strings(stale)
	if len(bad) > 0 {
		t.Errorf("%d declarations under internal/ have no caller outside tests; delete them or move them into a _test.go file:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("allowlisted test seams that are gone or now have a production caller; drop them from testSeams:\n\t%s",
			strings.Join(stale, "\n\t"))
	}
}

// testSeams are declarations kept for tests in another package, each
// with the tests that need it. Tests in the declaring package would
// hold the code in a _test.go file instead.
var testSeams = map[string]string{
	"trace.Encode":      "experiments/traces_test.go generates web-tide.jsonl",
	"trace.SortRecords": "experiments/traces_test.go generates web-tide.jsonl",
	"cp.IntVar.Name":    "core/costbound_test.go names the cost variables",
	"monitor.Ledger.Atoms": "testbed_test.go and experiments/attribution_test.go " +
		"check the ledger's atoms",
	"obs.Tracer.Cause":     "core's trace and loop-phase tests read a span's cause",
	"sim.Invariants.Count": "monitor/audit_ref_test.go compares breach counts",
	"core.LoopStats.PartitionReuses": "bench-pinned: bench/churn.go reads it; " +
		"the benchmark's next change drops it with loop.partition_reuse_ratio",
}

// TestEveryFieldTakesTwoValues fails on an exported field of a struct
// declared under internal/ (json-tagged structs aside) that is a
// constant in disguise: the struct has production composite literals,
// every one of them sets the field to the same constant, and no
// production assignment, ++/-- or & writes it. Such a field is one
// value spelled as a setting; make it a constant of the package that
// uses it.
func TestEveryFieldTakesTwoValues(t *testing.T) {
	l := loadRepo(t)
	found := map[string]string{} // name -> the constant and its literal
	for _, f := range l.fields {
		if f.tagged || l.assigned[f.obj] {
			continue
		}
		if v, pos, ok := l.singleValue(f.obj); ok {
			found[f.name] = fmt.Sprintf("always %s, set at %s", v, l.fset.Position(pos))
		}
	}
	var bad, stale []string
	for name, what := range found {
		if _, ok := singleValued[name]; !ok {
			bad = append(bad, name+": "+what)
		}
	}
	for name := range singleValued {
		if _, ok := found[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(bad)
	sort.Strings(stale)
	if len(bad) > 0 {
		t.Errorf("%d fields under internal/ take one constant in every production literal and are never assigned; make them constants:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("allowlisted single-valued fields that are gone or now take a second value; drop them from singleValued:\n\t%s",
			strings.Join(stale, "\n\t"))
	}
}

// singleValued are fields that production sets to one constant but a
// test sets to another, each with the test that needs the second value.
var singleValued = map[string]string{
	"experiments.DrainOptions.DrainFraction": "drain_test.go's quick scenario drains 3 of 24 nodes " +
		"(0.125), and studies_pinned.txt pins that run",
	"experiments.MigrationOptions.FencedVariant": "TestMigrationRenderings and TestMigrationStudy's " +
		"50 ms run solve the open variant alone",
	// Every study generates 2-CPU, 4 GiB nodes, and so does
	// bench/solve.go: its files change only with the benchmark.
	"workload.GenerateOptions.NodeCPU":    "bench/solve.go sets it",
	"workload.GenerateOptions.NodeMemory": "TestGenerateSmallCluster generates 2048 MiB nodes; bench/solve.go sets it",
	// Every portfolio worker runs the paper's search, and so does
	// bench/solve.go's probe: both become cp constants with the
	// benchmark's next change.
	"cp.Options.FirstFail": "cp/search_ref_test.go's queensModel and packingModel also search in input order " +
		"(TestSearchMatchesSlabCopyReference, TestResetSolverMatchesFresh); bench/solve.go sets it",
	"cp.Options.PreferValue": "cp/search_ref_test.go's queensModel and packingModel also search without preference " +
		"(TestSearchMatchesSlabCopyReference, TestResetSolverMatchesFresh); bench/solve.go sets it",
}

// standardMethods satisfy interfaces of the standard library that the
// loaded packages reach only through fmt, errors, encoding/json,
// sort and net/http.
var standardMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true,
	"ServeHTTP": true,
}

type decl struct {
	name  string
	obj   types.Object
	group *ast.GenDecl // the parenthesised iota block it is declared in, if any
}

type field struct {
	name   string
	obj    *types.Var
	tagged bool
}

type repo struct {
	fset    *token.FileSet
	decls   []decl
	fields  []field
	used    map[types.Object]bool
	written map[types.Object]bool
	// assigned holds the fields an assignment, ++/-- or & writes;
	// lits, per field, what each production composite literal of its
	// struct sets it to.
	assigned map[types.Object]bool
	lits     map[types.Object][]litValue
	ifaces   []*types.Interface
	groups   map[*ast.GenDecl][]types.Object
	// own is the source a declaration spans: a use inside it (a
	// recursive call, a self-referencing type) is not a caller.
	own map[types.Object]ast.Node
}

// exempt reports a method that satisfies an interface, or a const
// whose iota block has a used member.
func (r *repo) exempt(d decl) bool {
	if d.group != nil {
		for _, o := range r.groups[d.group] {
			if r.used[o] {
				return true
			}
		}
		return false
	}
	fn, ok := d.obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if standardMethods[fn.Name()] {
		return true
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	ptr := types.NewPointer(typ)
	for _, it := range r.ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj == nil {
			continue
		}
		if types.Implements(typ, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// litValue is what one composite literal sets a field to: a constant,
// or nil for a non-constant value or a field the literal leaves out.
type litValue struct {
	val constant.Value
	pos token.Pos
}

// singleValue reports the constant every production literal of the
// field's struct sets it to, and the first such literal.
func (r *repo) singleValue(f types.Object) (constant.Value, token.Pos, bool) {
	lits := r.lits[f]
	if len(lits) == 0 {
		return nil, token.NoPos, false
	}
	for _, l := range lits {
		if l.val == nil || !constant.Compare(l.val, token.EQL, lits[0].val) {
			return nil, token.NoPos, false
		}
	}
	return lits[0].val, lits[0].pos, true
}

// loadRepo parses and type-checks every non-test package, resolving
// cwcs/... imports from source and the standard library from export
// data, and indexes declarations, uses and field writes.
func loadRepo(t *testing.T) *repo {
	t.Helper()
	dirs := map[string]string{} // import path -> directory
	for _, top := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(top, func(path string, e os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			if e.IsDir() {
				dirs["cwcs/"+filepath.ToSlash(path)] = path
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	dirs["cwcs"] = "."

	r := &repo{
		fset:     token.NewFileSet(),
		used:     map[types.Object]bool{},
		written:  map[types.Object]bool{},
		assigned: map[types.Object]bool{},
		lits:     map[types.Object][]litValue{},
		groups:   map[*ast.GenDecl][]types.Object{},
		own:      map[types.Object]ast.Node{},
	}
	type pkg struct {
		files []*ast.File
		info  *types.Info
		types *types.Package
	}
	pkgs := map[string]*pkg{}
	std := importer.Default()
	var load func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "cwcs" || strings.HasPrefix(path, "cwcs/") {
			return load(path)
		}
		return std.Import(path)
	})
	load = func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			return p.types, nil
		}
		bp, err := build.Default.ImportDir(dirs[path], 0)
		if err != nil {
			return nil, err
		}
		p := &pkg{info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(r.fset, filepath.Join(dirs[path], name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		p.types, err = conf.Check(path, r.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		pkgs[path] = p
		return p.types, nil
	}
	var paths []string
	for path, dir := range dirs {
		if bp, err := build.Default.ImportDir(dir, 0); err == nil && len(bp.GoFiles) > 0 {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := load(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}

	for _, path := range paths {
		p := pkgs[path]
		if strings.HasPrefix(path, "cwcs/internal/") {
			r.declare(strings.TrimPrefix(path, "cwcs/internal/"), p.files, p.info)
		}
		r.index(p.files, p.info)
	}
	sort.Slice(r.decls, func(i, j int) bool { return r.decls[i].name < r.decls[j].name })
	return r
}

// declare records the package-level declarations and exported struct
// fields of one internal package.
func (r *repo) declare(pkg string, files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				if obj == nil || d.Name.Name == "init" || d.Name.Name == "_" {
					continue
				}
				name := pkg + "." + d.Name.Name
				if d.Recv != nil {
					name = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				r.decls = append(r.decls, decl{name: name, obj: obj})
				r.own[obj] = d
			case *ast.GenDecl:
				group := iotaBlock(d)
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						obj := info.Defs[s.Name]
						r.decls = append(r.decls, decl{name: pkg + "." + s.Name.Name, obj: obj})
						r.own[obj] = s
						if st, ok := obj.Type().Underlying().(*types.Struct); ok {
							r.declareFields(pkg+"."+s.Name.Name, st)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name == "_" {
								continue
							}
							obj := info.Defs[id]
							r.decls = append(r.decls, decl{name: pkg + "." + id.Name, obj: obj, group: group})
							if group != nil {
								r.groups[group] = append(r.groups[group], obj)
							}
						}
					}
				}
			}
		}
	}
}

func (r *repo) declareFields(typeName string, st *types.Struct) {
	tagged := false
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			tagged = true
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		v := st.Field(i)
		if v.Exported() && !v.Embedded() {
			r.fields = append(r.fields, field{name: typeName + "." + v.Name(), obj: v, tagged: tagged})
		}
	}
}

// index records every use outside a receiver and outside the used
// declaration itself, every interface type, and every write of a
// struct field.
func (r *repo) index(files []*ast.File, info *types.Info) {
	receivers := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range info.Uses {
		obj = origin(obj)
		if own := r.own[obj]; receivers[id] || own != nil && own.Pos() <= id.Pos() && id.Pos() < own.End() {
			continue
		}
		r.used[obj] = true
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			r.ifaces = append(r.ifaces, it)
		}
	}
	// write marks every field on the path of an assigned or addressed
	// expression: x.A.B = v and x.A[i]++ both set A.
	write := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
					r.written[origin(s.Obj())] = true
					r.assigned[origin(s.Obj())] = true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			default:
				return
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				tv, ok := info.Types[n]
				if !ok {
					break
				}
				st, ok := tv.Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				// vals[i] stays nil for a field the literal leaves out
				// (an empty literal leaves out every one) or sets to a
				// non-constant value.
				vals := make([]constant.Value, st.NumFields())
				positional := len(n.Elts) > 0
				if positional {
					_, keyed := n.Elts[0].(*ast.KeyValueExpr)
					positional = !keyed
				}
				if !positional {
					for _, e := range n.Elts {
						kv := e.(*ast.KeyValueExpr)
						if obj := info.Uses[kv.Key.(*ast.Ident)]; obj != nil {
							r.written[origin(obj)] = true
							for i := 0; i < st.NumFields(); i++ {
								if st.Field(i) == obj {
									vals[i] = info.Types[kv.Value].Value
								}
							}
						}
					}
				} else {
					for i := 0; i < st.NumFields(); i++ {
						r.written[origin(st.Field(i))] = true
						r.used[origin(st.Field(i))] = true
						vals[i] = info.Types[n.Elts[i]].Value
					}
				}
				for i, v := range vals {
					f := origin(st.Field(i))
					r.lits[f] = append(r.lits[f], litValue{val: v, pos: n.Pos()})
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					write(e)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			}
			return true
		})
	}
}

// iotaBlock returns d when it is a parenthesised const block using
// iota, whose members stand or fall together.
func iotaBlock(d *ast.GenDecl) *ast.GenDecl {
	if d.Tok != token.CONST || !d.Lparen.IsValid() {
		return nil
	}
	for _, s := range d.Specs {
		for _, v := range s.(*ast.ValueSpec).Values {
			found := false
			ast.Inspect(v, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
					found = true
				}
				return !found
			})
			if found {
				return d
			}
		}
	}
	return nil
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
