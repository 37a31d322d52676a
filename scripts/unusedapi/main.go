// Command unusedapi lists production API under internal/ that only
// tests call: an exported top-level func or type is reported when no
// non-test .go file in the repository references its name and no
// _test.go file outside its own package does. The repository is the
// root package plus cmd/, examples/, internal/ and vodperf/.
//
// Matching is by bare identifier name, so a symbol that shares its name
// with anything used elsewhere is never reported: the check can miss an
// unused symbol but never flags a live one. It uses only go/parser and
// go/ast, so it runs offline.
//
// Run from the repository root (or pass -root); it exits 1 on any
// finding:
//
//	go run ./scripts/unusedapi
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// decl is one exported top-level func or type under internal/.
type decl struct {
	dir, name string
	pos       token.Position
}

// uses records where a name is referenced: from any non-test file, and
// from the test files of which package directories.
type uses struct {
	prod     bool
	testDirs map[string]bool
}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	found, err := check(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unusedapi:", err)
		os.Exit(2)
	}
	for _, d := range found {
		fmt.Printf("%s: %s.%s is used only by its own tests\n", d.pos, filepath.Base(d.dir), d.name)
	}
	if len(found) > 0 {
		os.Exit(1)
	}
}

// check parses the repository and returns the unused declarations in
// file order.
func check(root string) ([]decl, error) {
	files, err := goFiles(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []decl
	refs := map[string]*uses{}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		dir, test := filepath.Dir(path), strings.HasSuffix(path, "_test.go")
		declared := map[*ast.Ident]bool{}
		if !test && strings.HasPrefix(filepath.ToSlash(dir), filepath.ToSlash(filepath.Join(root, "internal"))+"/") {
			for _, id := range exported(f) {
				declared[id] = true
				decls = append(decls, decl{dir: dir, name: id.Name, pos: fset.Position(id.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || declared[id] {
				return true
			}
			u := refs[id.Name]
			if u == nil {
				u = &uses{testDirs: map[string]bool{}}
				refs[id.Name] = u
			}
			if test {
				u.testDirs[dir] = true
			} else {
				u.prod = true
			}
			return true
		})
	}
	var found []decl
	for _, d := range decls {
		if u := refs[d.name]; u == nil || !u.prod && !usedOutside(u.testDirs, d.dir) {
			found = append(found, d)
		}
	}
	return found, nil
}

// exported returns the names of the file's exported top-level funcs
// (methods excluded) and types.
func exported(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				ids = append(ids, d.Name)
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, s := range d.Specs {
				if ts := s.(*ast.TypeSpec); ts.Name.IsExported() {
					ids = append(ids, ts.Name)
				}
			}
		}
	}
	return ids
}

func usedOutside(testDirs map[string]bool, own string) bool {
	for dir := range testDirs {
		if dir != own {
			return true
		}
	}
	return false
}

// goFiles lists the .go files of the root package and, recursively, of
// cmd/, examples/, internal/ and vodperf/, skipping testdata.
func goFiles(root string) ([]string, error) {
	var files []string
	top, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		return nil, err
	}
	files = append(files, top...)
	for _, sub := range []string{"cmd", "examples", "internal", "vodperf"} {
		err := filepath.WalkDir(filepath.Join(root, sub), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	return files, nil
}
