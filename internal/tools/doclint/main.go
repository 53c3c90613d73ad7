// Command doclint is the repo's zero-dependency documentation linter (a
// revive/golint-style check, runnable with plain `go run`): it parses the
// packages in the directories given as arguments and fails — listing every
// offender — when a package lacks a package comment or an exported
// identifier (function, method, type, or package-level var/const) lacks a
// doc comment. CI's docs job runs it over the root package and
// internal/service/... so the public godoc stays complete.
//
// Usage:
//
//	go run ./internal/tools/doclint <pkg-dir> [<pkg-dir>...]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doclint <pkg-dir> [<pkg-dir>...]")
		os.Exit(2)
	}
	failures := 0
	for _, dir := range os.Args[1:] {
		failures += lintDir(dir)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d findings\n", failures)
		os.Exit(1)
	}
}

// lintDir checks every non-test package clause in dir and returns the
// number of findings (each already printed).
func lintDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", dir, err)
		return 1
	}
	findings := 0
	report := func(pos token.Pos, format string, args ...any) {
		findings++
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(pos), fmt.Sprintf(format, args...))
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
			lintFile(f, report)
		}
		if !hasPkgDoc {
			findings++
			fmt.Fprintf(os.Stderr, "%s: package %s has no package comment\n", dir, pkg.Name)
		}
	}
	return findings
}

// lintFile reports every exported declaration in f that carries no doc
// comment.
func lintFile(f *ast.File, report func(token.Pos, string, ...any)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				report(d.Pos(), "exported %s %s has no doc comment", funcKind(d), d.Name.Name)
			}
		case *ast.GenDecl:
			lintGenDecl(d, report)
		}
	}
}

// lintGenDecl checks type/var/const declarations. A doc comment on the
// grouped declaration covers its specs; otherwise each exported spec needs
// its own.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, ...any)) {
	if d.Tok != token.TYPE && d.Tok != token.VAR && d.Tok != token.CONST {
		return
	}
	if d.Doc != nil {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(s.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name)
				}
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver type is exported (or
// the decl is a plain function); methods on unexported types are internal
// regardless of their own name.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// funcKind distinguishes methods from functions in reports.
func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}
