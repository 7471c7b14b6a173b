package cloudviews

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowList names the exported surfaces that no product file
// references by name, each with the reason it stays. A method is keyed
// "Receiver.Method", a function by its name.
var exportAllowList = map[string]string{
	// Called by the standard library through an interface.
	"Error":  "error interface",
	"Unwrap": "errors.Unwrap / errors.Is / errors.As",
	"String": "fmt.Stringer",
	// Called by the façade's callers (the benchmark and the examples),
	// which this scan skips.
	"Service.RunAnalyzer": "the analyzer entry point: the benchmark's re-mines and the examples call it",
	"Builder.Query":       "single TPC-DS query by ID: the tpcds example calls it",
	// Kept on purpose.
	"Service.Trace":           "the operator's per-job trace read (§4 debuggability); Trace.JSON exports it",
	"Injector.Counts":         "the chaos seam's read beside InstallFaults: soaks check what the injector fired",
	"Generator.Row":           "the one synthetic-row source the package tests fill their fixture tables from",
	"Service.Drain":           "graceful shutdown: the service's stop path, exercised by the lifecycle tests and the examples",
	"Service.InstallFaults":   "the chaos seam: fault injection is installed by soaks and the examples, never by product code",
	"Store.CachedPaths":       "introspection of the decoded-view cache for the cache tests",
	"Analyzer.Serial":         "the pinned reference engine the fold is checked against, until the history bound lands",
	"Service.RunBatch":        "the benchmark's concurrent-submission seam",
	"Workload.SyntheticUntil": "the benchmark's workload seam",
	"Trace.JSON":              "the operator's export of Service.Trace; the trace-determinism tests compare its bytes",
}

// TestEveryExportHasACaller parses the product code — every non-test Go
// file under internal/ and cmd/, plus the façade — and fails on an
// exported function, exported method or core.Config field that none of it
// references. A function counts as referenced by any identifier other
// than its own declaration's name. A method or field counts only as the
// selector of a non-package selector expression (x.Name) or as a
// composite-literal key, so a type, or a package-qualified function, that
// shares its name does not hide it. The benchmark and the examples are
// callers of the façade, not product code, and are not scanned.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	parse := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	parse("cloudviews.go")
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				parse(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	funcs := map[string]token.Pos{}   // exported function -> declaration
	methods := map[string]token.Pos{} // "Recv.Method" -> declaration
	var configFields []*ast.Ident
	declNames := map[*ast.Ident]bool{}
	idents := map[string]int{}    // every identifier use, by name
	selectors := map[string]int{} // x.Name and composite-literal keys, by Name
	for _, f := range files {
		pkgNames := map[string]bool{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndexByte(path, '/')+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgNames[name] = true
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				declNames[d.Name] = true
				if d.Recv == nil {
					funcs[d.Name.Name] = d.Pos()
				} else {
					methods[recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = d.Pos()
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "Config" || f.Name.Name != "core" {
						continue
					}
					for _, fld := range ts.Type.(*ast.StructType).Fields.List {
						configFields = append(configFields, fld.Names...)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declNames[n] {
					idents[n.Name]++
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); !ok || !pkgNames[x.Name] {
					selectors[n.Sel.Name]++
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					selectors[k.Name]++
				}
			}
			return true
		})
	}

	var unused []string
	for name, pos := range funcs {
		if idents[name] == 0 && exportAllowList[name] == "" {
			unused = append(unused, fset.Position(pos).String()+": func "+name)
		}
	}
	for key, pos := range methods {
		name := key[strings.IndexByte(key, '.')+1:]
		if selectors[name] == 0 && exportAllowList[key] == "" && exportAllowList[name] == "" {
			unused = append(unused, fset.Position(pos).String()+": method "+key)
		}
	}
	// A method entry on the allow-list must still be needed: one that
	// gained a caller, or whose method went, leaves the list.
	for key := range exportAllowList {
		dot := strings.IndexByte(key, '.')
		if dot < 0 {
			continue
		}
		if _, ok := methods[key]; !ok || selectors[key[dot+1:]] > 0 {
			t.Errorf("allow-list entry %s is stale: the method is gone or has a caller", key)
		}
	}
	for _, fld := range configFields {
		if selectors[fld.Name] == 0 {
			unused = append(unused, fset.Position(fld.Pos()).String()+": core.Config field "+fld.Name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside the tests: give it a product caller or delete it", u)
	}
}

// recvName returns the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
