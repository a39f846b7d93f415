package rumor_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// TestSurfaceGolden pins the module's exported surface: one sorted line
// "<import path> <kind> <Name>" per exported top-level identifier, and
// per exported method of an exported type, in the non-test files of the
// root package, client/... and internal/... (bench/, cmd/ and examples/
// are mains). The diff of testdata/surface.golden is the review of any
// change to that surface; run with -update only for an intentional one.
func TestSurfaceGolden(t *testing.T) {
	var lines []string
	for _, root := range []string{".", "client", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if root == "." && path != "." {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := filepath.ToSlash(filepath.Join("rumor", filepath.Dir(path)))
			for _, name := range exportedNames(f) {
				lines = append(lines, pkg+" "+name)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "surface.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	wantSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		wantSet[l] = true
	}
	for _, l := range lines {
		if !wantSet[l] {
			t.Errorf("exported but not in %s: %s", path, l)
		}
		delete(wantSet, l)
	}
	for l := range wantSet {
		t.Errorf("in %s but no longer exported: %s", path, l)
	}
}

// exportedNames lists "<kind> <Name>" for every exported top-level
// declaration of f; a method is "method Type.Name" and is listed only
// when its receiver type is exported too.
func exportedNames(f *ast.File) []string {
	var out []string
	add := func(kind string, id *ast.Ident) {
		if id.IsExported() {
			out = append(out, kind+" "+id.Name)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add("func", d.Name)
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver
				recv = idx.X
			}
			if typ, ok := recv.(*ast.Ident); ok && typ.IsExported() && d.Name.IsExported() {
				out = append(out, "method "+typ.Name+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add("type", s.Name)
				case *ast.ValueSpec:
					kind := "var"
					if d.Tok == token.CONST {
						kind = "const"
					}
					for _, id := range s.Names {
						add(kind, id)
					}
				}
			}
		}
	}
	return out
}
