package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// The benchmark must keep working while ROADMAP items 2 and 4 delete the
// duplicated surfaces, because a later non-benchmark PR may not edit it.
// These are the identifiers those items remove.
var (
	// methods that must not be called
	forbiddenCalls = map[string]bool{
		"Submit": true, "SubmitCtx": true, "SubmitBatch": true, "SubmitBatchCtx": true, "SubmitJob": true,
		"Recovery": true, "StorageStats": true, // the accessors; Snapshot() carries the same numbers
		"Eval":          true, // the expression interpreter
		"InstallFaults": true,
	}
	// names that must not appear at all, as selector or identifier
	forbiddenNames = map[string]bool{"Serial": true, "FaultHook": true, "ObsHook": true, "Faults": true}
)

func TestSeamUsesOnlyTheKeptSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "cloudviews/internal") && name != "seam.go" {
				t.Errorf("%s imports %s: every call into cloudviews/internal belongs in seam.go", name, imp.Path.Value)
			}
		}
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if forbiddenCalls[sel.Sel.Name] {
						t.Errorf("%s: call of %s, which ROADMAP deletes", fset.Position(n.Pos()), sel.Sel.Name)
					}
					// ex.Run(root, jobID, now) is the non-ctx executor twin;
					// svc.Run(ctx, spec) has two arguments.
					if sel.Sel.Name == "Run" && len(n.Args) == 3 {
						t.Errorf("%s: Executor.Run, use RunCtx", fset.Position(n.Pos()))
					}
					if (sel.Sel.Name == "Write" || sel.Sel.Name == "Consume") && isStore(sel.X) {
						t.Errorf("%s: Store.%s, use the Ctx form", fset.Position(n.Pos()), sel.Sel.Name)
					}
				}
			case *ast.SelectorExpr:
				if forbiddenNames[n.Sel.Name] {
					t.Errorf("%s: %s, which ROADMAP deletes", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && forbiddenNames[id.Name] {
					t.Errorf("%s: field %s, which ROADMAP deletes", fset.Position(n.Pos()), id.Name)
				}
			}
			return true
		})
	}
}

// isStore reports whether the receiver expression names a view store: the
// seam calls them scratch or reaches them as x.Store.
func isStore(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name == "scratch" || x.Name == "st"
	case *ast.SelectorExpr:
		return x.Sel.Name == "Store"
	}
	return false
}
