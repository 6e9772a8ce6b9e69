// Package analysis is a dependency-free static-analysis framework plus
// the project-specific analyzers behind cmd/bpvet. It deliberately
// mirrors the shapes of golang.org/x/tools/go/analysis — Analyzer, Pass,
// Diagnostic — so the analyzers could be ported to the real framework the
// day the repo takes on external dependencies, but it is built entirely
// on the standard library: packages are loaded with `go list -export`
// and type-checked against compiler export data via go/importer.
//
// The analyzers encode invariants this repo's bug history shows are too
// easy to break by hand (see cmd/bpvet and the README "Static analysis"
// section):
//
//	keyfields — cache-key construction must cover every config field
//	locksafe  — no blocking ops while holding service/sched mutexes
//	spanend   — obs spans end on every path; metric labels stay bounded
//	codecreg  — types crossing cachestore Encode/Decode have codecs
//	noalloc   — //bp:noalloc functions stay allocation-free (gc -m)
//
// A finding can be suppressed by putting `//bp:lint-ok <analyzer>` (with
// an optional trailing reason) on the flagged line or the line above it;
// suppressions are the escape hatch for sites a human has judged safe.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is a one-paragraph description of what it enforces.
	Doc string
	// Run analyzes one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dir is the package's source directory; ImportPath its load path.
	Dir        string
	ImportPath string
	// GoFiles are the parsed (non-test) source files, absolute paths.
	GoFiles []string

	// ImportedFacts is the union of the string facts exported — under
	// this analyzer's name — by the package's transitive dependencies.
	ImportedFacts map[string]bool

	// exported accumulates facts this package exports to dependents.
	exported map[string]bool
	diags    *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportFact publishes a string fact to packages that (transitively)
// import this one. Facts are how registration-style invariants (codecreg)
// cross package boundaries: the driver unions them along the import
// graph in-process.
func (p *Pass) ExportFact(fact string) {
	if p.exported == nil {
		p.exported = map[string]bool{}
	}
	p.exported[fact] = true
}

// HasFact reports whether a fact is visible: exported by this package or
// by any transitive dependency.
func (p *Pass) HasFact(fact string) bool {
	return p.exported[fact] || p.ImportedFacts[fact]
}

// pkgPathTail reports whether path's final segment equals name. Analyzer
// rules match project packages this way (".../internal/resultcache" and a
// testdata fake "…/testdata/keyfields/resultcache" both count), so the
// corpora can model the real APIs without importing them.
func pkgPathTail(path, name string) bool {
	if path == name {
		return true
	}
	n := len(path) - len(name)
	return n > 0 && path[n-1] == '/' && path[n:] == name
}

// namedOrPtrTo unwraps one level of pointer and reports the named type,
// if any, plus whether a pointer was unwrapped.
func namedOrPtrTo(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		n, _ := p.Elem().(*types.Named)
		return n, true
	}
	n, _ := t.(*types.Named)
	return n, false
}

// calleeFunc resolves a call expression to the declared func or method it
// invokes, or nil for calls through function values, builtins and
// conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = x
		} else if s, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = s.Sel
		}
	case *ast.IndexListExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = x
		} else if s, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = s.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the import path of the package declaring fn, or ""
// for builtins.
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// Analyzers returns the full bpvet suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{KeyFields, LockSafe, SpanEnd, CodecReg, NoAlloc}
}
