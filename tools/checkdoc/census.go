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
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// census prints, for every importable package of the module rooted at
// the working directory, how many top-level identifiers it exports and
// which of them no non-test file outside the package refers to (as
// pkg.Name through an import; syntax only, so a local that shadows a
// package name can hide a dead identifier, never invent one). Nested
// modules (bench/) count as referrers but are not listed. A second
// section lists the knobs: the settable values of every exported struct
// type named *Config, *Options or *Params, and of Supervisor (see
// structKnobs). A third lists what no binary links: see unlinked. CI diffs the output against SURFACE.txt: a change
// that adds surface or a knob, or strands code, says so.
func census(w io.Writer) error {
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		return err
	}
	module := strings.Fields(string(gomod))[1] // "module <path>" leads the file
	exported := map[string][]string{}          // import path -> exported names
	used := map[string]bool{}                  // "import path.Name" referenced from another package
	funcs := map[string][]string{}             // import path -> functions and methods, as the linker names them
	structs := map[string]*ast.StructType{}    // "import path.Type" -> every struct type declared
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
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name != "init" {
					funcs[self] = append(funcs[self], symbol(fn))
				}
			}
			exportedDecls(file, func(id *ast.Ident, what string, _ bool) {
				if what != "method" {
					exported[self] = append(exported[self], id.Name)
				}
			})
			collectStructs(file, self, structs)
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
	fmt.Fprintf(w, "total\texported %d\tunreferenced outside %d\n", total, dead)
	fmt.Fprintln(w, "knobs: settable values of exported *Config, *Options and *Params structs and of Supervisor")
	for _, typ := range slices.Sorted(maps.Keys(structs)) {
		if name := path.Ext(typ)[1:]; token.IsExported(name) && knobType.MatchString(name) {
			fields := structKnobs(structs, typ, map[string]bool{typ: true})
			fmt.Fprintf(w, "%s\tfields %d\n", typ, leaves(fields))
			printKnobs(w, fields, "\t")
		}
	}
	return unlinked(w, funcs)
}

// knobType matches the names of the struct types whose fields are knobs.
var knobType = regexp.MustCompile(`(Config|Options|Params)$|^Supervisor$`)

// collectStructs records, under "pkg.Type", every struct type in file.
func collectStructs(file *ast.File, pkg string, structs map[string]*ast.StructType) {
	for _, decl := range file.Decls {
		if gen, ok := decl.(*ast.GenDecl); ok {
			for _, spec := range gen.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						structs[pkg+"."+ts.Name.Name] = st
					}
				}
			}
		}
	}
}

// field is one settable value of a knob struct; sub lists the values of
// a field whose type is a struct declared in the same package.
type field struct {
	name string
	sub  []field
}

// structKnobs lists the exported fields of the struct typ ("pkg.Type"),
// in declaration order: an embedded struct of the same package by its
// promoted fields, a field whose type is such a struct, or a pointer to
// one, with that struct's fields as its sub. seen stops a type that
// contains itself.
func structKnobs(structs map[string]*ast.StructType, typ string, seen map[string]bool) []field {
	pkg := strings.TrimSuffix(typ, path.Ext(typ))
	var out []field
	for _, f := range structs[typ].Fields.List {
		t := f.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		var inner string // the same-package struct the field holds, if any
		if id, ok := t.(*ast.Ident); ok && structs[pkg+"."+id.Name] != nil && !seen[pkg+"."+id.Name] {
			inner = pkg + "." + id.Name
		}
		var sub []field
		if inner != "" {
			seen[inner] = true
			sub = structKnobs(structs, inner, seen)
			delete(seen, inner)
		}
		if len(f.Names) == 0 { // embedded: its name is its type's
			switch t := t.(type) {
			case *ast.Ident:
				if inner != "" {
					out = append(out, sub...)
				} else if t.IsExported() {
					out = append(out, field{name: t.Name})
				}
			case *ast.SelectorExpr:
				if t.Sel.IsExported() {
					out = append(out, field{name: t.Sel.Name})
				}
			}
			continue
		}
		for _, n := range f.Names {
			if n.IsExported() {
				out = append(out, field{name: n.Name, sub: sub})
			}
		}
	}
	return out
}

// leaves counts the settable values: a field with a sub counts its sub's.
func leaves(fields []field) int {
	n := 0
	for _, f := range fields {
		if len(f.sub) == 0 {
			n++
		} else {
			n += leaves(f.sub)
		}
	}
	return n
}

// printKnobs writes a line per field, its sub indented under it.
func printKnobs(w io.Writer, fields []field, indent string) {
	for _, f := range fields {
		fmt.Fprintf(w, "%s%s\n", indent, f.name)
		printKnobs(w, f.sub, indent+"\t")
	}
}

// unlinked prints, per package, the production functions and methods no
// shipped binary keeps: the mains under cmd/ and examples/ and the bench
// harness, built with inlining off (a function only ever inlined still
// counts as linked) and read with go tool nm; a generic function counts
// when any instantiation does. What is listed runs only under tests.
// Linker output differs per platform; the committed list is linux/amd64.
func unlinked(w io.Writer, funcs map[string][]string) error {
	dir, err := os.MkdirTemp("", "checkdoc-census")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	linked := map[string]bool{}
	for _, b := range [][]string{{".", "./cmd/...", "./examples/..."}, {"bench", "."}} {
		build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, b[1:]...)...)
		build.Dir, build.Stderr = b[0], os.Stderr
		if err := build.Run(); err != nil {
			return err
		}
	}
	bins, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			return fmt.Errorf("go tool nm %s: %w", bin, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[stripTypeArgs(f[2])] = true
			}
		}
	}
	fmt.Fprintln(w, "unlinked: functions and methods no binary links (linux/amd64)")
	for _, p := range slices.Sorted(maps.Keys(funcs)) {
		var dead []string
		for _, name := range funcs[p] {
			if !linked[p+"."+name] {
				dead = append(dead, name)
			}
		}
		if len(dead) > 0 {
			slices.Sort(dead)
			fmt.Fprintf(w, "%s\tunlinked %d\n\t%s\n", p, len(dead), strings.Join(dead, "\n\t"))
		}
	}
	return nil
}

// symbol names a function declaration as go tool nm prints it, less the
// package path: F, T.M or (*T).M.
func symbol(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	star, ptr := t.(*ast.StarExpr)
	if ptr {
		t = star.X
	}
	if g, ok := t.(*ast.IndexExpr); ok {
		t = g.X
	} else if g, ok := t.(*ast.IndexListExpr); ok {
		t = g.X
	}
	recv := t.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}

// stripTypeArgs drops every bracketed type-argument list from a linker
// symbol, so that F[go.shape.int] and (*T[...]).M read F and (*T).M.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		if r == '[' {
			depth++
		} else if r == ']' {
			depth--
		} else if depth == 0 {
			b.WriteRune(r)
		}
	}
	return b.String()
}
