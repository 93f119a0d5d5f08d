package iotaxo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported top-level functions in internal/ that
// may stand without a caller in non-test code, each with its reason.
// Anything else without a caller is dead API and should be deleted.
var exportAllowlist = map[string]string{
	"core.PaperTable2":              "paper surface: renders the paper's Table 2",
	"lanltrace.GeneratePseudoApp":   "paper surface: LANL-Trace's pseudo-application replay from raw trace text",
	"replay.FromRecords":            "replay axis: builds a replayable trace from any record stream",
	"aggregate.FromReplayable":      "paper section 6 trace-data API: the //TRACE adapter",
	"pfs.DefaultNFS":                "parallel-FS compatibility axis: the single-server file system Tracefs stacks on",
	"analysis.SummarizeSource":      "analysis-tools axis: the Figure 1 call summary over any record stream",
	"analysis.ComputeIOStatsSource": "analysis-tools axis: I/O statistics over any record stream",
	"analysis.HistogramSizesSource": "analysis-tools axis: request-size histogram over any record stream",
	"analysis.ComputeRankBalance":   "analysis-tools axis: per-rank I/O balance",
	"analysis.ComputeInterarrival":  "analysis-tools axis: request inter-arrival statistics",
	"trace.MergeSources":            "stream plumbing documented in README",
	"trace.TransformSink":           "stream plumbing documented in README",
}

// TestNoDeadExports fails when an exported top-level function in internal/
// is referenced by no non-test Go file under cmd/, examples/, perfbench/ or
// internal/. Tests do not count as callers: a function only tests call is
// either an oracle that belongs in a _test.go file or API to delete.
func TestNoDeadExports(t *testing.T) {
	type fn struct{ pkg, name string }
	var exported []fn
	refs := make(map[fn]bool)
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples", "perfbench", "internal"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := "iotaxo/" + filepath.ToSlash(filepath.Dir(p))
			imports := make(map[string]string) // local name -> import path
			for _, imp := range f.Imports {
				ipath, _ := strconv.Unquote(imp.Path.Value)
				name := path.Base(ipath)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = ipath
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				self := ""
				if ok && fd.Recv == nil {
					self = fd.Name.Name
					if root == "internal" && fd.Name.IsExported() {
						exported = append(exported, fn{pkg, self})
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
							refs[fn{imports[x.Name], n.Sel.Name}] = true
							return false
						}
					case *ast.Ident:
						// A same-package use; a function naming itself
						// (its declaration or a recursive call) is no caller.
						if n.Name != self {
							refs[fn{pkg, n.Name}] = true
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(exported) == 0 {
		t.Fatal("found no exported functions under internal/")
	}
	var dead []string
	uncalled := make(map[string]bool)
	for _, f := range exported {
		key := strings.TrimPrefix(f.pkg, "iotaxo/internal/") + "." + f.name
		if refs[f] {
			continue
		}
		uncalled[key] = true
		if exportAllowlist[key] == "" {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported but no non-test code calls it: delete it or allowlist it with a reason", key)
	}
	for key, reason := range exportAllowlist {
		if !uncalled[key] {
			t.Errorf("allowlist entry %s is stale: it is gone or has a caller now", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
	}
}
