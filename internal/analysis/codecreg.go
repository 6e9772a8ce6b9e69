package analysis

import (
	"go/ast"
	"go/types"
)

// CodecReg enforces the codec-registration invariant: a value whose
// static type is concrete may only be passed to cachestore.Encode (the
// serialisation point for disk spills and wire-shipped artifacts) if a
// codec for exactly that type is registered — RegisterGob[T] or an
// explicit Register(Codec{Type: reflect.TypeFor[T]()}) — in this package
// or one it (transitively) imports, so registration has provably run by
// init time. Today a missing registration surfaces as a runtime
// ErrNoCodec mid-study, on whichever worker first tries to spill.
//
// Registrations are exported as facts and flow along the import graph.
// Interface-typed arguments are outside the static horizon and are not
// checked.
var CodecReg = &Analyzer{
	Name: "codecreg",
	Doc:  "types passed to cachestore.Encode must have a registered codec",
	Run:  runCodecReg,
}

func runCodecReg(pass *Pass) error {
	// Phase 1: export registration facts from this package.
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || !pkgPathTail(funcPkgPath(fn), "cachestore") {
			return true
		}
		switch fn.Name() {
		case "RegisterGob":
			if t, ok := instantiationArg(pass, call); ok {
				pass.ExportFact("codec:" + types.TypeString(t, nil))
			}
		case "Register":
			// Explicit Register(Codec{...}): extract reflect.TypeFor[T]()
			// instantiations from the argument.
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					inner, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					ifn := calleeFunc(pass.TypesInfo, inner)
					if ifn == nil || ifn.Name() != "TypeFor" || funcPkgPath(ifn) != "reflect" {
						return true
					}
					if t, ok := instantiationArg(pass, inner); ok {
						pass.ExportFact("codec:" + types.TypeString(t, nil))
					}
					return true
				})
			}
		}
		return true
	})

	// Phase 2: check Encode call sites against the visible facts.
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Name() != "Encode" || !pkgPathTail(funcPkgPath(fn), "cachestore") {
			return true
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			return true // a method named Encode on some codec type, not the package function
		}
		for _, arg := range call.Args {
			t := pass.TypesInfo.TypeOf(arg)
			if t == nil || !concreteCodecType(t) {
				continue
			}
			fact := "codec:" + types.TypeString(t, nil)
			if !pass.HasFact(fact) {
				pass.Reportf(arg.Pos(), "no codec registered for %s in this package or its dependencies — cachestore.Encode will fail with ErrNoCodec at runtime; add cachestore.RegisterGob[%s](...) to an init path", types.TypeString(t, types.RelativeTo(pass.Pkg)), types.TypeString(t, types.RelativeTo(pass.Pkg)))
			}
		}
		return true
	})
	return nil
}

// instantiationArg returns the single type argument of a generic call
// like RegisterGob[T](...) or reflect.TypeFor[T]().
func instantiationArg(pass *Pass, call *ast.CallExpr) (types.Type, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.IndexExpr:
		id = funIdent(fun.X)
	case *ast.IndexListExpr:
		id = funIdent(fun.X)
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	if id == nil {
		return nil, false
	}
	inst, ok := pass.TypesInfo.Instances[id]
	if !ok || inst.TypeArgs.Len() != 1 {
		return nil, false
	}
	return inst.TypeArgs.At(0), true
}

func funIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// concreteCodecType reports whether a static type is concrete enough to
// check: named (or pointer-to-named) and not an interface or type
// parameter. Untyped nil, interfaces and generics pass through to the
// runtime check.
func concreteCodecType(t types.Type) bool {
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return false
	}
	n, _ := namedOrPtrTo(t)
	if n == nil {
		return false
	}
	if _, ok := n.Underlying().(*types.Interface); ok {
		return false
	}
	return true
}
