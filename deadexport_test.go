package iotaxo

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported package-level functions, constants,
// variables and types ("pkg.Name") and methods ("pkg.Type.Method", the type
// possibly an interface) in internal/ that may stand without a use in
// non-test code, each with its reason.
// Anything else without a caller is dead API: delete it, or move a probe
// only its own package's tests use into a _test.go file.
var exportAllowlist = map[string]string{
	"core.PaperTable2":              "paper surface: renders the paper's Table 2",
	"lanltrace.GeneratePseudoApp":   "paper surface: LANL-Trace's pseudo-application replay from raw trace text",
	"aggregate.FromReplayable":      "paper section 6 trace-data API: the //TRACE adapter",
	"pfs.DefaultNFS":                "parallel-FS compatibility axis: the single-server file system Tracefs stacks on",
	"analysis.SummarizeSource":      "analysis-tools axis: the Figure 1 call summary over any record stream",
	"analysis.ComputeIOStatsSource": "analysis-tools axis: I/O statistics over any record stream",
	"analysis.HistogramSizesSource": "analysis-tools axis: request-size histogram over any record stream",
	"analysis.ComputeRankBalance":   "analysis-tools axis: per-rank I/O balance",
	"analysis.ComputeInterarrival":  "analysis-tools axis: request inter-arrival statistics",
	"trace.MergeSources":            "stream plumbing documented in README",
	"trace.TransformSink":           "stream plumbing documented in README",

	"aggregate.Aggregator.Sources":      "paper section 6 trace-data API: lists the registered trace sources",
	"aggregate.Aggregator.TimelineCSV":  "paper section 6 trace-data API: the merged timeline as CSV",
	"aggregate.Source.Capabilities":     "paper section 6 trace-data API: which taxonomy axes a source's data supports",
	"analysis.RankBalance.Format":       "analysis-tools axis: renders ComputeRankBalance",
	"analysis.SizeHistogram.Format":     "analysis-tools axis: renders HistogramSizesSource",
	"disk.Disk.Fail":                    "fault-handling axis: RAID fault injection",
	"disk.Disk.Repair":                  "fault-handling axis: RAID fault injection",
	"disk.Array.Disk":                   "fault-handling axis: selects the RAID member to fail or repair",
	"vfs.ProcCtx.MMap":                  "events-captured axis: mmap I/O that syscall tracers miss (TestSeesMMapWritebackUnlikeSyscallTracers)",
	"vfs.MMapRegion.Store":              "events-captured axis: the store a mapped region writes back (TestSeesMMapWritebackUnlikeSyscallTracers)",
	"sim.Env.LiveProcs":                 "probe read by harness TestGoroutineWatermark512Ranks; a run report would call it",
	"sim.Env.Pending":                   "probe read by harness TestGoroutineWatermark512Ranks; a run report would call it",
	"sim.Env.Spawns":                    "probe read by harness TestSpawnGuardMatrixCell; a run report would call it",
	"vfs.Kernel.Clock":                  "probe read by cluster TestClockBoundsRespected",
	"clocks.Clock.SkewAt":               "probe read by cluster TestClockBoundsRespected",
	"trace.BinaryReader.Flags":          "probe read by tracefs TestEncryptedTraceHidesPathsButDecrypts",
	"vfs.MemFS.Snapshot":                "probe read by tracefs TestLowerEndStateUnchanged",
	"workload.Scale.TotalBytes":         "probe read by harness TestStrongScaleFloorsAtOneBlock",
	"harness.TracefsResult.MaxOverhead": "probe read by the root BenchmarkTracefsOverhead",
}

// TestNoDeadExports fails when an exported package-level function,
// constant, variable or type, an exported method of a named type or an
// exported method of a named interface in internal/ has no use in the
// non-test Go files under cmd/, examples/, perfbench/ or internal/, and is
// not allowlisted.
// Tests do not count as callers: a name only tests use is either a probe that
// belongs in a _test.go file or API to delete.
//
// The files are type-checked, so a use is an identifier that resolves to the
// declared object, not one that merely shares its name. A use inside the
// package that declares the name counts: the guard finds names nothing reads,
// not names that could be unexported. A method also counts
// as used when it is in the method set of a type (T or *T) the module
// declares that implements an interface, declared in the repo or in an
// imported package, that has a method of that name: calls through the
// interface reach it. The type may be the method's own or one that embeds
// it, so a method promoted from an embedded type counts too. An interface's own method is used only by
// an identifier that resolves to it, a call through the interface: that
// concrete types implement it is no use.
//
// The pass type-checks the whole module, so -short skips it; go test ./...
// runs it.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	prog, err := loadRepo([]string{"cmd", "examples", "perfbench", "internal"})
	if err != nil {
		t.Fatal(err)
	}
	exported := prog.internalExports()
	if len(exported) == 0 {
		t.Fatal("found no exported names under internal/")
	}
	used := prog.uses()
	viaIface := prog.interfaceMethods(prog.interfaces())
	uncalled := make(map[string]bool)
	var dead []string
	for key, obj := range exported {
		if fn, ok := obj.(*types.Func); used[obj] || ok && viaIface[fn] {
			continue
		}
		uncalled[key] = true
		if exportAllowlist[key] == "" {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported but no non-test code uses it: delete it, move it into a _test.go file or allowlist it with a reason", key)
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

// repoProgram is the type-checked non-test code of the module's packages.
type repoProgram struct {
	fset  *token.FileSet
	files map[string][]string // import path -> its non-test Go files
	pkgs  map[string]*checkedPkg
	std   types.Importer
	order []*checkedPkg // in completion order
}

type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loadRepo type-checks every package with non-test Go files under roots.
// Module packages are checked from their parsed files, so each declaration
// has one object however many packages import it; the standard library
// comes from the "source" importer.
func loadRepo(roots []string) (*repoProgram, error) {
	fset := token.NewFileSet()
	prog := &repoProgram{
		fset:  fset,
		files: make(map[string][]string),
		pkgs:  make(map[string]*checkedPkg),
		std:   importer.ForCompiler(fset, "source", nil),
	}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			path := "iotaxo/" + filepath.ToSlash(filepath.Dir(p))
			prog.files[path] = append(prog.files[path], p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(prog.files))
	for path := range prog.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := prog.Import(path); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// Import type-checks a module package on first use, and hands any other
// import path to the standard-library importer.
func (prog *repoProgram) Import(path string) (*types.Package, error) {
	names, ok := prog.files[path]
	if !ok {
		return prog.std.Import(path)
	}
	if cp := prog.pkgs[path]; cp != nil {
		return cp.pkg, nil
	}
	cp := &checkedPkg{info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	prog.pkgs[path] = cp
	for _, name := range names {
		f, err := parser.ParseFile(prog.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		cp.files = append(cp.files, f)
	}
	conf := types.Config{Importer: prog}
	pkg, err := conf.Check(path, prog.fset, cp.files, cp.info)
	if err != nil {
		return nil, err
	}
	cp.pkg = pkg
	prog.order = append(prog.order, cp)
	return pkg, nil
}

// internalExports maps "pkg.Name" and "pkg.Type.Method" to every exported
// package-level object (function, constant, variable or type) and every
// exported method of a package-level named type in internal/. An interface
// type contributes the methods it declares itself; the methods it embeds are
// keyed under the interfaces that declare them.
func (prog *repoProgram) internalExports() map[string]types.Object {
	out := make(map[string]types.Object)
	for _, cp := range prog.order {
		pkgPath, ok := strings.CutPrefix(cp.pkg.Path(), "iotaxo/internal/")
		if !ok {
			continue
		}
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out[pkgPath+"."+name] = obj
			}
			if obj, ok := obj.(*types.TypeName); ok {
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				methods := named.Methods()
				if iface, ok := named.Underlying().(*types.Interface); ok {
					methods = iface.ExplicitMethods()
				}
				for m := range methods {
					if m.Exported() {
						out[pkgPath+"."+name+"."+m.Name()] = m
					}
				}
			}
		}
	}
	return out
}

// uses returns every object that some identifier in non-test code resolves
// to, outside a function's own body and outside a method's receiver: a
// recursive call is no caller, and a method declared on a type is no use of
// the type. A generic function or method resolves to its origin.
func (prog *repoProgram) uses() map[types.Object]bool {
	used := make(map[types.Object]bool)
	for _, cp := range prog.order {
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				var self types.Object
				var recv *ast.FieldList
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self, recv = cp.info.Defs[fd.Name], fd.Recv
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if recv != nil && n == ast.Node(recv) {
						return false
					}
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					switch obj := cp.info.Uses[id].(type) {
					case *types.Func:
						if obj != self {
							used[obj.Origin()] = true
						}
					case nil:
					default:
						used[obj] = true
					}
					return true
				})
			}
		}
	}
	return used
}

// interfaces returns every interface with methods that the module declares,
// names in a type expression, or reaches through its imports, the universe's
// error included.
func (prog *repoProgram) interfaces() []*types.Interface {
	var out []*types.Interface
	have := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return // a generic interface has no method set until instantiated
		}
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && !have[iface] {
			have[iface] = true
			out = append(out, iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, cp := range prog.order {
		walk(cp.pkg)
		for _, tv := range cp.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// interfaceMethods returns the concrete methods that calls through one of
// ifaces can reach: for every named type the module declares, as T and as
// *T, and every interface in ifaces that it implements, the method its
// method set selects for each of the interface's methods. A method promoted
// from an embedded field is selected as the embedded type's own.
func (prog *repoProgram) interfaceMethods(ifaces []*types.Interface) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	for _, cp := range prog.order {
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			var t types.Type = named
			if named.TypeParams().Len() > 0 {
				// A generic type has a method set as its methods'
				// receiver sees it, instantiated with its own parameters.
				if named.NumMethods() == 0 {
					continue
				}
				t = named.Method(0).Signature().Recv().Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
			}
			for _, t := range []types.Type{t, types.NewPointer(t)} {
				mset := types.NewMethodSet(t)
				if mset.Len() == 0 {
					continue
				}
				for _, iface := range ifaces {
					if !types.Implements(t, iface) {
						continue
					}
					for m := range iface.Methods() {
						if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
							out[sel.Obj().(*types.Func).Origin()] = true
						}
					}
				}
			}
		}
	}
	return out
}
