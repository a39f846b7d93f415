// Command callers prints, for each line of testdata/surface.golden, how
// many references the name has outside its own declaration: in non-test
// files, then in test files, over every .go file of the module (bench/,
// cmd/ and examples/ included). Run from the module root:
//
//	go run ./hack/callers | awk '$1 == 0'
//
// lists the candidates of the next deletion pass. It matches by name,
// without type checking: a package-level name counts unqualified uses in
// its own package and pkg.Name uses elsewhere; a method counts every
// x.Name selector, whatever x is — so a zero is reliable, except for a
// method called only through an interface it satisfies (String, Error,
// ServeHTTP, MarshalJSON).
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// refs[isTest][key] counts uses; key is "<import path> <Name>" for a
// package-level name and ".<Name>" for a selector on a value.
var refs [2]map[string]int

func main() {
	log.SetFlags(0)
	refs[0], refs[1] = map[string]int{}, map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		return scan(path)
	})
	if err != nil {
		log.Fatal(err)
	}

	golden, err := os.Open(filepath.Join("testdata", "surface.golden"))
	if err != nil {
		log.Fatal(err)
	}
	defer golden.Close()
	for sc := bufio.NewScanner(golden); sc.Scan(); {
		f := strings.Fields(sc.Text()) // pkg kind Name
		key := f[0] + " " + f[2]
		if f[1] == "method" {
			key = f[2][strings.IndexByte(f[2], '.'):]
		}
		fmt.Printf("%d\t%d\t%s\n", refs[0][key], refs[1][key], sc.Text())
	}
}

func scan(path string) error {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	into := refs[0]
	if strings.HasSuffix(path, "_test.go") {
		into = refs[1]
	}
	own := filepath.ToSlash(filepath.Join("rumor", filepath.Dir(path)))
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := p[strings.LastIndexByte(p, '/')+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}

	skip := map[*ast.Ident]bool{} // declaring names and selector fields
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					skip[s.Name] = true
				case *ast.ValueSpec:
					for _, id := range s.Names {
						skip[id] = true
					}
				}
			}
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
				into[imports[pkg.Name]+" "+x.Sel.Name]++
				return false
			}
			into["."+x.Sel.Name]++
			skip[x.Sel] = true
		case *ast.Ident:
			if !skip[x] {
				into[own+" "+x.Name]++
			}
		}
		return true
	})
	return nil
}
