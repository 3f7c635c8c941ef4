// Command checkdoc fails when a package directory contains exported
// identifiers without doc comments — the documentation gate CI runs on
// the packages whose godoc is part of the public contract.
//
// Usage:
//
//	go run ./tools/checkdoc internal/churn internal/sim
//	go run ./tools/checkdoc -census > SURFACE.txt   (from the module root)
//
// Rules (a deliberately small subset of revive's exported rule, with no
// dependency): every exported top-level type, function, method, and
// every exported const/var (or its enclosing declaration group) must
// carry a doc comment. _test.go files are skipped.
//
// -census instead prints the module's surface and the functions no
// binary links, as linked for linux/amd64: see census.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: checkdoc DIR [DIR...] | checkdoc -census")
		os.Exit(2)
	}
	if os.Args[1] == "-census" {
		if err := census(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "checkdoc:", err)
			os.Exit(2)
		}
		return
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		missing, err := check(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "checkdoc:", err)
			os.Exit(2)
		}
		for _, m := range missing {
			fmt.Println(m)
		}
		bad += len(missing)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "checkdoc: %d exported identifiers lack doc comments\n", bad)
		os.Exit(1)
	}
}

// check parses one directory (non-recursive) and returns one message
// per undocumented exported identifier.
func check(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, what, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			exportedDecls(file, func(id *ast.Ident, what string, documented bool) {
				if !documented {
					report(id.Pos(), what, id.Name)
				}
			})
		}
	}
	return missing, nil
}

// exportedDecls visits every exported top-level identifier of a file —
// functions, methods on exported receivers, types, constants and
// variables — with whether a doc comment covers it: its own or, for
// const/var/type, its declaration group's.
func exportedDecls(file *ast.File, visit func(id *ast.Ident, what string, documented bool)) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && receiverExported(d) {
				what := "function"
				if d.Recv != nil {
					what = "method"
				}
				visit(d.Name, what, d.Doc != nil)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						visit(s.Name, "type", d.Doc != nil || s.Doc != nil)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							visit(n, strings.ToLower(d.Tok.String()), d.Doc != nil || s.Doc != nil || s.Comment != nil)
						}
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is itself
// exported (methods on unexported types are internal detail).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true // plain function
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}
