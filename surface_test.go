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

// The operator-surface guards keep spstad's knobs paying for their
// place, in the spirit of TestInternalPackagesHaveAnImporter: a
// service.Config field nothing but the daemon's flag wiring sets has
// never run under a test, and a flag the README never names is a knob
// no operator can find. Either gets exercised and documented, or
// deleted.

const spstadMain = "cmd/spstad/main.go"

// TestServiceConfigFieldsAreSet checks that every service.Config field
// is a key in some Config composite literal outside cmd/spstad's flag
// wiring. Tests, cmd/spstasoak and spstabench (whose module nests
// under this one) count.
func TestServiceConfigFieldsAreSet(t *testing.T) {
	fields := configFields(t)
	if len(fields) == 0 {
		t.Fatal("no service.Config fields found; run from the module root")
	}
	set := map[string]bool{}
	walkGo(t, func(path string, f *ast.File) {
		if path == spstadMain {
			return
		}
		local := ""
		if filepath.ToSlash(filepath.Dir(path)) == "internal/service" {
			local = "." // the package's own files name the type bare
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/service" {
				local = "service"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || !isConfigType(lit.Type, local) {
				return true
			}
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[id.Name] = true
					}
				}
			}
			return true
		})
	})
	var unset []string
	for _, name := range fields {
		if !set[name] {
			unset = append(unset, name)
		}
	}
	if len(unset) > 0 {
		t.Errorf("service.Config fields set only by %s: %s", spstadMain, strings.Join(unset, ", "))
	}
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

// configFields lists service.Config's field names in declaration
// order.
func configFields(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "internal/service/service.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fields []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Config" {
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

// isConfigType reports whether a composite literal's type is the
// service package's Config, named through local ("." for bare).
func isConfigType(typ ast.Expr, local string) bool {
	switch x := typ.(type) {
	case *ast.Ident:
		return local == "." && x.Name == "Config"
	case *ast.SelectorExpr:
		pkg, ok := x.X.(*ast.Ident)
		return ok && pkg.Name == local && x.Sel.Name == "Config"
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
