package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// census prints, for every importable package of the module rooted at
// the working directory, how many top-level identifiers it exports and
// which of them no non-test file outside the package refers to (as
// pkg.Name through an import; syntax only, so a local that shadows a
// package name can hide a dead identifier, never invent one). Nested
// modules (bench/) count as referrers but are not listed. CI diffs the
// output against SURFACE.txt: a change that adds surface says so.
func census(w io.Writer) error {
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		return err
	}
	module := strings.Fields(string(gomod))[1] // "module <path>" leads the file
	exported := map[string][]string{}          // import path -> exported names
	used := map[string]bool{}                  // "import path.Name" referenced from another package
	nested := "\x00"                           // directory prefix of the nested module being walked
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); p != "." && err == nil {
				nested = p + string(filepath.Separator)
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		self := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		if file.Name.Name != "main" && !strings.HasPrefix(p, nested) {
			exportedDecls(file, func(id *ast.Ident, what string, _ bool) {
				if what != "method" {
					exported[self] = append(exported[self], id.Name)
				}
			})
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range file.Imports {
			target, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(target)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = target
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" && imports[x.Name] != self {
					used[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return err
	}
	total, dead := 0, 0
	for _, p := range slices.Sorted(maps.Keys(exported)) {
		var unreferenced []string
		for _, name := range exported[p] {
			if !used[p+"."+name] {
				unreferenced = append(unreferenced, name)
			}
		}
		slices.Sort(unreferenced)
		total, dead = total+len(exported[p]), dead+len(unreferenced)
		fmt.Fprintf(w, "%s\texported %d\tunreferenced outside %d\n", p, len(exported[p]), len(unreferenced))
		for _, name := range unreferenced {
			fmt.Fprintf(w, "\t%s\n", name)
		}
	}
	_, err = fmt.Fprintf(w, "total\texported %d\tunreferenced outside %d\n", total, dead)
	return err
}
