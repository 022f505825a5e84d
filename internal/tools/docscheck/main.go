// Command docscheck enforces the repository's documentation floor: every
// Go package (including main packages — commands and examples) must carry
// a package-level doc comment. `make lint` runs it as part of the CI lint gate.
//
// Usage:
//
//	go run ./internal/tools/docscheck [root]
//
// It walks root (default ".") for directories containing non-test Go
// files, parses only package clauses and comments, and exits non-zero
// listing every package whose files all lack a package doc comment.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	dirs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}

	var missing []string
	paths := make([]string, 0, len(dirs))
	for d := range dirs {
		paths = append(paths, d)
	}
	sort.Strings(paths)
	for _, dir := range paths {
		documented, pkgName, err := dirHasPackageDoc(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(2)
		}
		if !documented {
			missing = append(missing, fmt.Sprintf("%s (package %s)", dir, pkgName))
		}
	}
	if len(missing) > 0 {
		fmt.Fprintln(os.Stderr, "docscheck: packages without a package doc comment:")
		for _, m := range missing {
			fmt.Fprintln(os.Stderr, "  ", m)
		}
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d packages documented\n", len(paths))
}

// dirHasPackageDoc reports whether any non-test Go file in dir carries a
// doc comment on its package clause.
func dirHasPackageDoc(dir string) (bool, string, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, "", err
	}
	pkgName := ""
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil,
			parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return false, "", err
		}
		pkgName = f.Name.Name
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true, pkgName, nil
		}
	}
	return false, pkgName, nil
}
