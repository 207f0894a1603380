package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalPackagesHaveAnImporter is the paper-scope guard: every
// package under internal/ must be imported by some non-test file other
// than the root facade; spstabench, whose module path nests under this
// one, counts. A package only the facade reaches serves no engine,
// endpoint, command, benchmark, experiment or oracle, so it is outside
// the reproduction's scope and should be deleted rather than kept
// alive by a re-export.
func TestInternalPackagesHaveAnImporter(t *testing.T) {
	const module = "repro"
	var internal []string
	imported := map[string]bool{} // imported by a non-test file outside the facade
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := module
		if dir != "." {
			pkg = module + "/" + dir
		}
		if strings.HasPrefix(dir, "internal/") && !slices.Contains(internal, pkg) {
			internal = append(internal, pkg)
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if pkg != module {
				imported[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("no internal packages found; run from the module root")
	}
	var orphans []string
	for _, pkg := range internal {
		if !imported[pkg] {
			orphans = append(orphans, strings.TrimPrefix(pkg, module+"/internal/"))
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("internal packages imported only by the root facade: %s", strings.Join(orphans, ", "))
	}
}
