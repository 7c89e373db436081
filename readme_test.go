package boreas_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"testing"
)

// TestREADMEUsesExportedFacade keeps README.md's Go snippets honest:
// every boreas.X they mention must be a name boreas.go exports.
func TestREADMEUsesExportedFacade(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "boreas.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				exported[d.Name.Name] = d.Name.IsExported()
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					exported[s.Name.Name] = s.Name.IsExported()
				case *ast.ValueSpec:
					for _, n := range s.Names {
						exported[n.Name] = n.IsExported()
					}
				}
			}
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := regexp.MustCompile("(?s)```go\n(.*?)```").FindAllStringSubmatch(string(readme), -1)
	if len(blocks) == 0 {
		t.Fatal("README.md has no Go blocks")
	}
	ref := regexp.MustCompile(`\bboreas\.([A-Z][A-Za-z0-9_]*)`)
	for _, b := range blocks {
		for _, m := range ref.FindAllStringSubmatch(b[1], -1) {
			if !exported[m[1]] {
				t.Errorf("README.md uses boreas.%s, which boreas.go does not export", m[1])
			}
		}
	}
}
