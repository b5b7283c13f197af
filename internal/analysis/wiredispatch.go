package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// WireDispatch makes adding a wire message a compile-gated act: every
// proto.Type* constant must (a) have an entry in Type.String's name
// map (the renderer used by traces and error paths), (b) be handled
// by at least one dispatch switch over proto.Type in the engine
// (server side in internal/rendezvous, client side in internal/punch,
// negotiation included — their union must be total, or a new message
// silently falls through everywhere), and (c) sit within Decode's
// validity bound (the `m.Type > TypeLast` guard must name the last
// constant, or new messages are rejected as ErrBadType on arrival).
// PR 5 added three Fed* types by hand-auditing exactly these sites.
var WireDispatch = &Analyzer{
	Name: "wiredispatch",
	Doc:  "every wire Type constant must be rendered, dispatched, and within Decode's bound",
	Run:  runWireDispatch,
}

func runWireDispatch(pass *Pass) {
	protoPkg, ok := pass.Module.Packages[pass.Config.ProtoPackage]
	if !ok {
		return
	}
	typeObj, ok := protoPkg.Types.Scope().Lookup("Type").(*types.TypeName)
	if !ok {
		return
	}
	wireType := typeObj.Type()

	// Collect the Type* constants, sorted by wire value.
	type wireConst struct {
		obj *types.Const
		val int64
	}
	var consts []wireConst
	scope := protoPkg.Types.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, "Type") || name == "Type" {
			continue
		}
		if !types.Identical(c.Type(), wireType) {
			continue
		}
		v, exact := constant.Int64Val(c.Val())
		if !exact {
			continue
		}
		consts = append(consts, wireConst{obj: c, val: v})
	}
	if len(consts) == 0 {
		return
	}
	sort.Slice(consts, func(i, j int) bool { return consts[i].val < consts[j].val })
	last := consts[len(consts)-1]
	isWireConst := make(map[types.Object]bool, len(consts))
	for _, c := range consts {
		isWireConst[c.obj] = true
	}

	// constUses collects, over an AST subtree, which wire constants
	// are referenced (plain or package-qualified identifiers).
	constUses := func(pkg *Package, n ast.Node, into map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pkg.Info.Uses[id]; obj != nil && isWireConst[obj] {
					into[obj] = true
				}
			}
			return true
		})
	}

	// (a) Type.String renderer coverage.
	var stringDecl *ast.FuncDecl
	for _, f := range protoPkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "String" || fn.Recv == nil || len(fn.Recv.List) != 1 {
				continue
			}
			if rt := protoPkg.Info.TypeOf(fn.Recv.List[0].Type); rt != nil {
				if ptr, ok := rt.(*types.Pointer); ok {
					rt = ptr.Elem()
				}
				if types.Identical(rt, wireType) {
					stringDecl = fn
				}
			}
		}
	}
	if stringDecl == nil {
		pass.Reportf(typeObj.Pos(), "wire type %s.Type has no String renderer", protoPkg.Types.Name())
	} else {
		rendered := make(map[types.Object]bool)
		constUses(protoPkg, stringDecl.Body, rendered)
		for _, c := range consts {
			if !rendered[c.obj] {
				pass.Reportf(stringDecl.Pos(),
					"%s missing from Type.String: the renderer must name every wire type", c.obj.Name())
			}
		}
	}

	// (b) Dispatch coverage: the union of case constants across every
	// switch over the wire type in the dispatch packages.
	dispatched := make(map[types.Object]bool)
	var anchor *ast.SwitchStmt
	anchorCases := -1
	for _, pkg := range pass.Module.Sorted() {
		if !matchAny(pkg.Path, pass.Config.DispatchPackages) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				tag := pkg.Info.TypeOf(sw.Tag)
				if tag == nil || !types.Identical(tag, wireType) {
					return true
				}
				ncases := 0
				for _, clause := range sw.Body.List {
					cc, ok := clause.(*ast.CaseClause)
					if !ok || cc.List == nil {
						continue
					}
					ncases++
					for _, e := range cc.List {
						constUses(pkg, e, dispatched)
					}
				}
				if ncases > anchorCases {
					anchor, anchorCases = sw, ncases
				}
				return true
			})
		}
	}
	for _, c := range consts {
		if dispatched[c.obj] {
			continue
		}
		if anchor != nil {
			pass.Reportf(anchor.Pos(),
				"%s is not handled by any dispatch switch over %s.Type in %s: a message of this type falls through silently",
				c.obj.Name(), protoPkg.Types.Name(), strings.Join(pass.Config.DispatchPackages, ", "))
		} else {
			pass.Reportf(c.obj.Pos(),
				"%s has no dispatch switch anywhere in %s",
				c.obj.Name(), strings.Join(pass.Config.DispatchPackages, ", "))
		}
	}

	// (c) Decode's validity bound must name the last wire constant.
	// Any decode-family function or method is scanned (Decode,
	// decodeInto, (*Decoder).Decode, ...), so refactoring the parser
	// into a shared helper cannot silently drop this gate.
	for _, f := range protoPkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !strings.HasPrefix(strings.ToLower(fn.Name.Name), "decode") || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				cmp, ok := n.(*ast.BinaryExpr)
				if !ok {
					return true
				}
				switch cmp.Op.String() {
				case ">", ">=":
				default:
					return true
				}
				id, ok := cmp.Y.(*ast.Ident)
				if !ok {
					return true
				}
				obj := protoPkg.Info.Uses[id]
				if obj == nil || !isWireConst[obj] {
					return true
				}
				if obj != last.obj {
					pass.Reportf(cmp.Pos(),
						"Decode's upper bound %s is stale: the last wire type is %s, so newer messages decode as ErrBadType",
						obj.Name(), last.obj.Name())
				}
				return true
			})
		}
	}
}
