package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The surface guards keep the engine's and spstad's knobs paying for
// their place, in the spirit of TestInternalPackagesHaveAnImporter: a
// configuration field nothing sets has never run, and a flag the
// README never names is a knob no operator can find. Either gets
// exercised and documented, or deleted.

const spstadMain = "cmd/spstad/main.go"

// surfaceTypes are the configuration structs whose every field some
// caller must set. A field counts as set by a key in a composite
// literal of the type, or by an x.F = assignment in a file that
// imports the type's package (matched by field name: the walker reads
// syntax, not types). spstabench, whose module nests under this one,
// counts like any other caller.
var surfaceTypes = []struct {
	pkg, typ, file string
	// counts reports whether a file's settings count.
	counts func(path string) bool
	// unset names the fields that may stay unset, with the reason.
	unset map[string]string
}{
	{
		// Tests, cmd/spstasoak and spstabench count; spstad's own flag
		// wiring does not.
		pkg: "repro/internal/service", typ: "Config", file: "internal/service/service.go",
		counts: func(path string) bool { return path != spstadMain },
	},
	{
		pkg: "repro/internal/core", typ: "Analyzer", file: "internal/core/analyzer.go",
		counts: outsideCore,
		unset: map[string]string{
			"MaxParityFanin": "the fault-injection seam of TestParityFaninCap, " +
				"TestParallelErrorDeterministic and incr's update-error restore case",
		},
	},
	{
		pkg: "repro/internal/core", typ: "CoarsenPolicy", file: "internal/core/coarsen.go",
		counts: outsideCore,
	},
	{
		pkg: "repro/internal/core", typ: "MomentTiming", file: "internal/core/momenttiming.go",
		counts: outsideCore,
	},
}

// outsideCore accepts non-test files outside internal/core: the
// engine's own package and its tests do not pay for a knob.
func outsideCore(path string) bool {
	return !strings.HasSuffix(path, "_test.go") && !strings.HasPrefix(path, "internal/core/")
}

// TestSurfaceFieldsAreSet checks that every field of each
// surfaceTypes entry is set by a file whose settings count, apart
// from the entry's named exceptions.
func TestSurfaceFieldsAreSet(t *testing.T) {
	set := make([]map[string]bool, len(surfaceTypes))
	for i := range set {
		set[i] = map[string]bool{}
	}
	walkGo(t, func(path string, f *ast.File) {
		for i, st := range surfaceTypes {
			if !st.counts(path) {
				continue
			}
			local := ""
			if filepath.ToSlash(filepath.Dir(path)) == filepath.Dir(st.file) {
				local = "." // the package's own files name the type bare
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == st.pkg {
					local = filepath.Base(st.pkg)
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local != "" {
				fieldsSetIn(f, local, st.typ, set[i])
			}
		}
	})
	for i, st := range surfaceTypes {
		fields := structFields(t, st.file, st.typ)
		if len(fields) == 0 {
			t.Fatalf("no %s fields found in %s; run from the module root", st.typ, st.file)
		}
		var unset []string
		for _, name := range fields {
			if _, ok := st.unset[name]; !ok && !set[i][name] {
				unset = append(unset, name)
			}
		}
		if len(unset) > 0 {
			t.Errorf("%s.%s fields no counted caller sets: %s",
				filepath.Base(st.pkg), st.typ, strings.Join(unset, ", "))
		}
	}
}

// fieldsSetIn records in set the fields f sets on typ, named through
// local ("." for bare): keys of typ's composite literals, and the
// selectors of x.F = assignments.
func fieldsSetIn(f *ast.File, local, typ string, set map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !isNamedType(n.Type, local, typ) {
				return true
			}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[id.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					set[sel.Sel.Name] = true
				}
			}
		}
		return true
	})
}

// TestSpstadFlagsAreDocumented checks that README.md names every flag
// cmd/spstad defines, as -name.
func TestSpstadFlagsAreDocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), spstadMain, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var flags []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0 // flag.Int("name", ...)
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1 // flag.IntVar(&v, "name", ...)
		}
		if len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			flags = append(flags, name)
		}
		return true
	})
	if len(flags) == 0 {
		t.Fatalf("no flags found in %s", spstadMain)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, name := range flags {
		re := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `($|[^\w-])`)
		if !re.Match(readme) {
			missing = append(missing, "-"+name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("spstad flags README.md never names: %s", strings.Join(missing, ", "))
	}
}

// structFields lists the field names of the struct type typ declared
// in file, in declaration order.
func structFields(t *testing.T, file, typ string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fields []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != typ {
			return true
		}
		for _, fld := range ts.Type.(*ast.StructType).Fields.List {
			for _, id := range fld.Names {
				fields = append(fields, id.Name)
			}
		}
		return false
	})
	return fields
}

// isNamedType reports whether a composite literal's type is typ of
// the package named through local ("." for bare).
func isNamedType(expr ast.Expr, local, typ string) bool {
	switch x := expr.(type) {
	case *ast.Ident:
		return local == "." && x.Name == typ
	case *ast.SelectorExpr:
		pkg, ok := x.X.(*ast.Ident)
		return ok && pkg.Name == local && x.Sel.Name == typ
	}
	return false
}

// walkGo parses every Go file under the module root, tests included,
// and hands it to visit with its slash-separated path.
func walkGo(t *testing.T, visit func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
