package durable

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoHandWrittenCommit keeps the temp + rename commit rule in this
// package: any os.Rename or os.CreateTemp call elsewhere in the module's
// non-test code fails the test, except the two listed below, which are
// deliberately not durable commits.
func TestNoHandWrittenCommit(t *testing.T) {
	allowed := map[string]bool{
		// Spill files are scratch state wiped at startup (DESIGN.md §14).
		"internal/spill/tier.go os.Rename": true,
		// A corrupt artifact is set aside, not committed.
		"internal/server/funcs.go os.Rename": true,
	}
	root := filepath.Join("..", "..")
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "internal/durable" || d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		osName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		if osName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != osName || (sel.Sel.Name != "Rename" && sel.Sel.Name != "CreateTemp") {
				return true
			}
			key := rel + " os." + sel.Sel.Name
			if !allowed[key] || seen[key] {
				t.Errorf("%s: hand-written commit step; stage and commit through internal/durable instead", key)
			}
			seen[key] = true
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range allowed {
		if !seen[key] {
			t.Errorf("allow-list entry %q matches no call; remove it", key)
		}
	}
}
