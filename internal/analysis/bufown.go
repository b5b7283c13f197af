package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BufOwn enforces the data plane's buffer-ownership contract with a
// function-local alias/escape analysis. Four buffer classes are
// callback-scoped — valid only until the enclosing engine callback
// returns, because the producer reuses the backing storage:
//
//   - payloads delivered to OnRecv-shaped callbacks (realudp's read
//     loops reuse one receive buffer per socket, PR 8);
//   - slice fields of a *proto.Message received as a parameter (the
//     reusing proto.Decoder owns the Candidates storage, which the next
//     datagram overwrites, and its Data is the received datagram's own
//     bytes), and of a stream.Frame received by value or pointer (the
//     frame parser's Data is the datagram's bytes too);
//   - configured scratch fields (Config.ScratchFields: reused encode
//     buffers and message skeletons on the zero-alloc hot path);
//   - the buffer a Reserve() call lends (transport.InPlaceSender): the
//     tail of the socket's send queue, the caller's only until the
//     Commit that hands it back, and the next datagram's after that.
//
// Any alias of such a buffer that can outlive the callback is flagged:
// stores to struct fields or package variables, map inserts, retaining
// appends (append(list, buf) without ...), channel sends, and capture
// by go/defer closures or by a closure handed to the transport's
// end-of-entry hook (transport.Deferrer's Defer), which runs once the
// whole delivered batch has been through the callback and the decoder.
// Passing any of them to SendTo is not an escape: every transport
// releases the payload before SendTo returns. Copying first launders
// the taint: append(dst, buf...), copy,
// bytes.Clone, string conversion, or any other call boundary.
//
// The analysis is function-local and flow-insensitive (one
// copy-reassignment of a variable clears it for the whole function),
// with one interprocedural aid: same-package helpers whose results
// alias a parameter (readEP-style framing helpers returning b[6:])
// get an alias summary, so taint survives the call instead of being
// laundered. It cannot prove every retention, but it mechanically
// re-detects every shape of this bug class the repo has shipped.
var BufOwn = &Analyzer{
	Name: "bufown",
	Doc:  "callback-scoped buffers (OnRecv payloads, decoder-owned Message fields, scratch) must not escape their callback",
	Run:  runBufOwn,
}

// taintClass distinguishes inbound callback-scoped buffers from reused
// scratch and lent send buffers, which the diagnostics name apart.
type taintClass int

const (
	taintNone taintClass = iota
	// taintScratch marks reused encode scratch (Config.ScratchFields).
	taintScratch
	// taintReserved marks a send buffer lent by Reserve().
	taintReserved
	// taintCallback marks inbound callback-scoped buffers (OnRecv
	// payloads, decoder-owned Message slice fields).
	taintCallback
)

func (t taintClass) String() string {
	switch t {
	case taintScratch:
		return "reused scratch buffer"
	case taintReserved:
		return "send buffer lent by Reserve"
	}
	return "callback-scoped buffer"
}

func runBufOwn(pass *Pass) {
	scratch := resolveScratchFields(pass)
	msgTypes := resolveMessageTypes(pass)
	for _, pkg := range pass.Module.Sorted() {
		if !matchAny(pkg.Path, pass.Config.BufOwnPackages) {
			continue
		}
		cb := collectCallbackFuncs(pass, pkg)
		summaries := collectAliasSummaries(pkg)
		for _, f := range pkg.Files {
			forEachFuncUnit(f, func(ft *ast.FuncType, body *ast.BlockStmt, isCallback bool) {
				bo := &bufOwnFunc{
					pass: pass, pkg: pkg,
					scratch:   scratch,
					msgTypes:  msgTypes,
					summaries: summaries,
					taint:     make(map[types.Object]taintClass),
					cleansed:  make(map[types.Object]bool),
					carrier:   make(map[types.Object]taintClass),
					pointee:   make(map[types.Object]pointeeKind),
					local:     make(map[types.Object]bool),
				}
				bo.seedParams(ft, isCallback || cb[ft])
				bo.analyze(body)
			})
		}
	}
}

// forEachFuncUnit visits every function body in the file exactly once
// — FuncDecls and FuncLits alike — reporting whether the unit is a
// literal registered directly as an OnRecv-shaped callback.
func forEachFuncUnit(f *ast.File, visit func(*ast.FuncType, *ast.BlockStmt, bool)) {
	direct := make(map[*ast.FuncLit]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isCallbackRegistrar(call) {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				direct[lit] = true
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn.Type, fn.Body, false)
			}
		case *ast.FuncLit:
			visit(fn.Type, fn.Body, direct[fn])
		}
		return true
	})
}

// isCallbackRegistrar reports whether the call installs an
// OnRecv-shaped delivery callback whose payload parameter is
// callback-scoped by the transport contract.
func isCallbackRegistrar(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "OnRecv"
}

// collectCallbackFuncs maps the FuncType of every same-package
// function passed by name to an OnRecv registrar (u.OnRecv(s.handle)),
// so their payload parameters seed as callback-scoped when the
// function body is analyzed.
func collectCallbackFuncs(pass *Pass, pkg *Package) map[*ast.FuncType]bool {
	// Registered function objects, from every file of the package.
	objs := make(map[types.Object]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isCallbackRegistrar(call) {
				return true
			}
			for _, arg := range call.Args {
				var id *ast.Ident
				switch a := arg.(type) {
				case *ast.Ident:
					id = a
				case *ast.SelectorExpr:
					id = a.Sel
				}
				if id == nil {
					continue
				}
				if obj := pkg.Info.Uses[id]; obj != nil {
					objs[obj] = true
				}
			}
			return true
		})
	}
	if len(objs) == 0 {
		return nil
	}
	out := make(map[*ast.FuncType]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj := pkg.Info.Defs[fn.Name]; obj != nil && objs[obj] {
				out[fn.Type] = true
			}
		}
	}
	return out
}

// resolveScratchFields maps "pkgpath.Type.field" config entries to
// their field objects.
func resolveScratchFields(pass *Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, spec := range pass.Config.ScratchFields {
		i := strings.LastIndex(spec, ".")
		if i < 0 {
			continue
		}
		typeAndField := spec
		var pkgPath string
		// pkgpath.Type.field: split the trailing two dot segments.
		j := strings.LastIndex(spec[:i], ".")
		if j < 0 {
			continue
		}
		pkgPath, typeAndField = spec[:j], spec[j+1:]
		k := strings.Index(typeAndField, ".")
		if k < 0 {
			continue
		}
		typeName, fieldName := typeAndField[:k], typeAndField[k+1:]
		pkg, ok := pass.Module.Packages[pkgPath]
		if !ok {
			continue
		}
		tn, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for f := 0; f < st.NumFields(); f++ {
			if st.Field(f).Name() == fieldName {
				out[st.Field(f)] = true
			}
		}
	}
	return out
}

// resolveMessageTypes maps "pkgpath.Type" config entries to the named
// types whose slice fields are decoder-owned when the value arrives as
// a function parameter.
func resolveMessageTypes(pass *Pass) map[types.Type]bool {
	out := make(map[types.Type]bool)
	for _, spec := range pass.Config.MessageTypes {
		j := strings.LastIndex(spec, ".")
		if j < 0 {
			continue
		}
		pkg, ok := pass.Module.Packages[spec[:j]]
		if !ok {
			continue
		}
		tn, ok := pkg.Types.Scope().Lookup(spec[j+1:]).(*types.TypeName)
		if !ok {
			continue
		}
		out[tn.Type()] = true
	}
	return out
}

// aliasSummary records, per result index of a function, which
// parameter indices the result's slice storage may alias. Framing
// helpers like readEP (returning b[6:]) are the motivating shape: a
// call must propagate the argument's taint to that result instead of
// laundering it.
type aliasSummary [][]int

// collectAliasSummaries builds alias summaries for every function
// declared in the package whose return expressions slice or pass
// through a parameter. Only direct derivations in return statements
// are tracked (Ident, slicing, non-ellipsis append) — enough for the
// repo's framing helpers without a fixed-point analysis.
func collectAliasSummaries(pkg *Package) map[types.Object]aliasSummary {
	out := make(map[types.Object]aliasSummary)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Type.Results == nil {
				continue
			}
			obj := pkg.Info.Defs[fn.Name]
			if obj == nil {
				continue
			}
			if s := summarizeAliases(pkg, fn); s != nil {
				out[obj] = s
			}
		}
	}
	return out
}

func summarizeAliases(pkg *Package, fn *ast.FuncDecl) aliasSummary {
	paramIdx := make(map[types.Object]int)
	i := 0
	for _, field := range fn.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if o := pkg.Info.Defs[name]; o != nil {
				paramIdx[o] = i
			}
			i++
		}
	}
	if len(paramIdx) == 0 {
		return nil
	}
	nres := 0
	for _, field := range fn.Type.Results.List {
		if len(field.Names) == 0 {
			nres++
		} else {
			nres += len(field.Names)
		}
	}
	sum := make(aliasSummary, nres)
	found := false
	var aliasParams func(e ast.Expr, add func(int))
	aliasParams = func(e ast.Expr, add func(int)) {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if idx, ok := paramIdx[pkg.Info.Uses[x]]; ok {
				if t := pkg.Info.TypeOf(x); t != nil && isSliceType(t) {
					add(idx)
				}
			}
		case *ast.SliceExpr:
			aliasParams(x.X, add)
		case *ast.CallExpr:
			if fid, ok := x.Fun.(*ast.Ident); ok && fid.Name == "append" && !x.Ellipsis.IsValid() {
				for _, a := range x.Args {
					aliasParams(a, add)
				}
			}
		}
	}
	inspectUnit(fn.Body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != nres {
			return // naked returns: conservatively no aliasing recorded
		}
		for k, e := range ret.Results {
			aliasParams(e, func(idx int) {
				for _, have := range sum[k] {
					if have == idx {
						return
					}
				}
				sum[k] = append(sum[k], idx)
				found = true
			})
		}
	})
	if !found {
		return nil
	}
	return sum
}

// pointeeKind classifies what a local pointer variable points at, for
// deciding whether a store through it escapes the function.
type pointeeKind int

const (
	pointeeUnknown  pointeeKind = iota
	pointeeLocal                // &localValueVar: stays function-local
	pointeeScratch              // &s.scratchField: scratch absorbs callback-scoped data
	pointeeEscaping             // &s.otherField, &pkgVar: stores escape
)

// bufOwnFunc carries the per-function analysis state.
type bufOwnFunc struct {
	pass      *Pass
	pkg       *Package
	scratch   map[types.Object]bool
	msgTypes  map[types.Type]bool
	summaries map[types.Object]aliasSummary

	// taint records variables aliasing a callback-scoped buffer;
	// cleansed records variables reassigned via a recognized copy
	// idiom anywhere in the function (copy wins, flow-insensitively).
	taint    map[types.Object]taintClass
	cleansed map[types.Object]bool
	// carrier records local composite values (structs, slices) holding
	// a tainted reference in a field or element.
	carrier map[types.Object]taintClass
	// pointee classifies local pointer variables by what they address.
	pointee map[types.Object]pointeeKind
	// local records objects declared inside this function unit —
	// message-typed params are NOT message-owned when locally built.
	local map[types.Object]bool
	// msgParams are the *proto.Message-class parameters whose slice
	// fields are decoder-owned.
	msgParams map[types.Object]bool
}

// seedParams taints the unit's parameters: []byte params of callback
// units, and Message-class params everywhere.
func (bo *bufOwnFunc) seedParams(ft *ast.FuncType, isCallback bool) {
	bo.msgParams = make(map[types.Object]bool)
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := bo.pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			t := obj.Type()
			if isCallback && isByteSlice(t) {
				bo.taint[obj] = taintCallback
			}
			if pt, ok := t.(*types.Pointer); ok {
				t = pt.Elem()
			}
			if bo.msgTypes[t] {
				bo.msgParams[obj] = true
			}
		}
	}
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

func isSliceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// analyze runs the two propagation passes and then the sink scan over
// one function body, never descending into nested function literals
// (each literal is its own unit; captures are checked at go/defer and
// closure-value sites).
func (bo *bufOwnFunc) analyze(body *ast.BlockStmt) {
	// Two passes propagate aliases through forward and loop-carried
	// assignments; the cleansed set makes copies win regardless of
	// order.
	bo.walkAssigns(body)
	bo.walkAssigns(body)
	bo.scanSinks(body)
}

// walkAssigns records variable taint, carriers, and pointer
// provenance from every assignment and declaration in the unit.
func (bo *bufOwnFunc) walkAssigns(body *ast.BlockStmt) {
	inspectUnit(body, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				// Multi-value call: a summarized helper's results keep
				// their argument aliases (ep, rest := readEP(p[1:])).
				if len(s.Rhs) == 1 {
					if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
						bo.recordMultiAssign(s, call)
					}
				}
				return
			}
			for i := range s.Lhs {
				bo.recordAssign(s.Lhs[i], s.Rhs[i], s.Tok == token.DEFINE)
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if obj := bo.pkg.Info.Defs[name]; obj != nil {
					bo.local[obj] = true
				}
				if i < len(s.Values) {
					bo.recordAssign(name, s.Values[i], true)
				}
			}
		case *ast.RangeStmt:
			// for _, d := range taintedSlice: the element aliases it.
			if s.Value != nil {
				if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
					if t := bo.exprTaint(s.X); t != taintNone {
						if obj := bo.defOrUse(id); obj != nil {
							bo.local[obj] = true
							if isSliceType(bo.pkg.Info.TypeOf(id)) || bo.pkg.Info.TypeOf(id) != nil && !isBasic(bo.pkg.Info.TypeOf(id)) {
								bo.setTaint(obj, t)
							}
						}
					}
				}
			}
		}
	})
}

func isBasic(t types.Type) bool {
	_, ok := t.Underlying().(*types.Basic)
	return ok
}

func (bo *bufOwnFunc) defOrUse(id *ast.Ident) types.Object {
	if obj := bo.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return bo.pkg.Info.Uses[id]
}

func (bo *bufOwnFunc) setTaint(obj types.Object, t taintClass) {
	if t > bo.taint[obj] {
		bo.taint[obj] = t
	}
}

// recordAssign propagates taint/cleansing/provenance for one lhs :=/= rhs pair.
func (bo *bufOwnFunc) recordAssign(lhs, rhs ast.Expr, define bool) {
	id, isIdent := lhs.(*ast.Ident)
	if isIdent && id.Name == "_" {
		return
	}
	if !isIdent {
		return // selector/index/star stores are sink territory
	}
	obj := bo.defOrUse(id)
	if obj == nil {
		return
	}
	if define {
		bo.local[obj] = true
	}
	// Pointer provenance: p := &something.
	if un, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && un.Op == token.AND {
		bo.pointee[obj] = bo.classifyAddr(un.X)
	}
	if t := bo.exprTaint(rhs); t != taintNone {
		bo.setTaint(obj, t)
		return
	}
	// A copy idiom over a tainted source makes this variable clean for
	// the whole function (a conditional copy: the copy sits on one
	// branch, the use below both).
	if bo.isCopyOfTainted(rhs) {
		bo.cleansed[obj] = true
	}
}

// recordMultiAssign propagates summarized aliases through a
// multi-value call assignment: each lhs whose result index aliases a
// parameter takes the corresponding argument's taint.
func (bo *bufOwnFunc) recordMultiAssign(s *ast.AssignStmt, call *ast.CallExpr) {
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := bo.defOrUse(id)
		if obj == nil {
			continue
		}
		if s.Tok == token.DEFINE {
			bo.local[obj] = true
		}
		if id.Name == "_" {
			continue
		}
		if t := bo.callResultTaint(call, i); t != taintNone {
			bo.setTaint(obj, t)
		}
	}
}

// callResultTaint returns the taint a summarized same-package call's
// result carries from its arguments (taintNone when the callee has no
// alias summary — ordinary calls launder).
func (bo *bufOwnFunc) callResultTaint(call *ast.CallExpr, result int) taintClass {
	var callee types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee = bo.pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		callee = bo.pkg.Info.Uses[f.Sel]
	}
	if callee == nil {
		return taintNone
	}
	sum, ok := bo.summaries[callee]
	if !ok || result >= len(sum) {
		return taintNone
	}
	var t taintClass
	for _, argIdx := range sum[result] {
		if argIdx < len(call.Args) {
			if at := bo.exprTaint(call.Args[argIdx]); at > t {
				t = at
			}
		}
	}
	return t
}

// classifyAddr classifies the target of an & expression.
func (bo *bufOwnFunc) classifyAddr(x ast.Expr) pointeeKind {
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		obj := bo.defOrUse(e)
		if obj == nil {
			return pointeeUnknown
		}
		if bo.local[obj] {
			return pointeeLocal
		}
		return pointeeEscaping
	case *ast.SelectorExpr:
		if sel, ok := bo.pkg.Info.Selections[e]; ok && bo.scratch[sel.Obj()] {
			return pointeeScratch
		}
		// &local.field is local; &recv.field escapes with recv.
		if root := selectorRoot(e); root != nil {
			if obj := bo.defOrUse(root); obj != nil && bo.local[obj] && !isPointer(obj.Type()) {
				return pointeeLocal
			}
		}
		return pointeeEscaping
	default:
		return pointeeUnknown
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// selectorRoot returns the root identifier of a selector chain
// (s.a.b -> s), or nil when the chain roots at a call or index.
func selectorRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprTaint computes the taint class an expression's value aliases,
// honoring the cleansed set.
func (bo *bufOwnFunc) exprTaint(e ast.Expr) taintClass {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := bo.defOrUse(x)
		if obj == nil || bo.cleansed[obj] {
			return taintNone
		}
		if t := bo.taint[obj]; t != taintNone {
			return t
		}
		return bo.carrier[obj]
	case *ast.SelectorExpr:
		return bo.selectorTaint(x)
	case *ast.SliceExpr:
		return bo.exprTaint(x.X)
	case *ast.IndexExpr:
		// element of a tainted slice-of-slices stays tainted; a byte of
		// a tainted []byte does not.
		if t := bo.pkg.Info.TypeOf(x); t != nil && isBasic(t) {
			return taintNone
		}
		return bo.exprTaint(x.X)
	case *ast.StarExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if obj := bo.defOrUse(id); obj != nil && bo.pointee[obj] == pointeeScratch {
				return taintScratch
			}
		}
		return taintNone
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return bo.exprTaint(x.X)
		}
		return taintNone
	case *ast.CompositeLit:
		var t taintClass
		for _, el := range x.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if et := bo.exprTaint(v); et > t {
				t = et
			}
		}
		return t
	case *ast.FuncLit:
		// A closure value holding a tainted free variable is itself a
		// retention vector once stored.
		return bo.capturedTaint(x, false)
	case *ast.CallExpr:
		if bo.isReserveCall(x) {
			return taintReserved
		}
		if fn, ok := x.Fun.(*ast.Ident); ok && fn.Name == "append" {
			if x.Ellipsis.IsValid() {
				// append(dst, buf...) copies the bytes — into dst, which
				// is still the socket's when it was reserved.
				if bo.exprTaint(x.Args[0]) == taintReserved {
					return taintReserved
				}
				return taintNone
			}
			var t taintClass
			for _, a := range x.Args[1:] {
				if at := bo.exprTaint(a); at > t {
					t = at
				}
			}
			// append(list, buf): the result holds the alias.
			if t != taintNone {
				return t
			}
			return bo.exprTaint(x.Args[0])
		}
		// Call boundaries launder (bytes.Clone, proto.Encode allocate)
		// unless the callee has an alias summary.
		return bo.callResultTaint(x, 0)
	default:
		return taintNone
	}
}

// isReserveCall reports whether the call borrows a socket's send buffer
// (transport.InPlaceSender): a method named Reserve that takes nothing
// and returns a byte slice.
func (bo *bufOwnFunc) isReserveCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Reserve" || len(call.Args) != 0 {
		return false
	}
	t := bo.pkg.Info.TypeOf(call)
	return t != nil && isByteSlice(t)
}

// selectorTaint classifies a field read: decoder-owned Message slice
// fields and scratch fields are sources.
func (bo *bufOwnFunc) selectorTaint(sel *ast.SelectorExpr) taintClass {
	selection, ok := bo.pkg.Info.Selections[sel]
	if ok && bo.scratch[selection.Obj()] {
		if isSliceType(selection.Obj().Type()) {
			return taintScratch
		}
		// Reading a whole scratch struct (scratchMsg) yields a carrier.
		return taintScratch
	}
	// Slice field of a Message-class parameter (m.Data, m.Candidates).
	if ok {
		if t := bo.pkg.Info.TypeOf(sel); t != nil && isSliceType(t) {
			if root := selectorRoot(sel.X); root != nil {
				if obj := bo.defOrUse(root); obj != nil && bo.msgParams[obj] {
					return taintCallback
				}
			}
		}
	}
	// Field of a scratch struct reached through a scratch field or
	// scratch pointer: s.scratchMsg.Data, out.Data with out = &s.scratchMsg.
	if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if s2, ok := bo.pkg.Info.Selections[inner]; ok && bo.scratch[s2.Obj()] {
			if t := bo.pkg.Info.TypeOf(sel); t != nil && isSliceType(t) {
				return taintScratch
			}
		}
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if obj := bo.defOrUse(id); obj != nil {
			if bo.pointee[obj] == pointeeScratch {
				if t := bo.pkg.Info.TypeOf(sel); t != nil && isSliceType(t) {
					return taintScratch
				}
			}
			// Field read off a tainted carrier struct.
			if bo.carrier[obj] != taintNone {
				if t := bo.pkg.Info.TypeOf(sel); t != nil && isSliceType(t) {
					return bo.carrier[obj]
				}
			}
		}
	}
	return taintNone
}

// isCopyOfTainted recognizes the copy idioms over a tainted source:
// append(dst, buf...), bytes.Clone(buf), []byte(string(buf)).
func (bo *bufOwnFunc) isCopyOfTainted(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" && call.Ellipsis.IsValid() {
		return len(call.Args) == 2 && bo.exprTaintIgnoringCleanse(call.Args[1]) != taintNone
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Clone" {
		return len(call.Args) == 1 && bo.exprTaintIgnoringCleanse(call.Args[0]) != taintNone
	}
	return false
}

// exprTaintIgnoringCleanse is exprTaint without the cleansed
// exemption, used to recognize `buf = append([]byte(nil), buf...)`
// as the cleansing assignment itself.
func (bo *bufOwnFunc) exprTaintIgnoringCleanse(e ast.Expr) taintClass {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := bo.defOrUse(x); obj != nil {
			if t := bo.taint[obj]; t != taintNone {
				return t
			}
		}
		return taintNone
	case *ast.SliceExpr:
		return bo.exprTaintIgnoringCleanse(x.X)
	default:
		return bo.exprTaint(e)
	}
}

// capturedTaint returns the strongest taint among free variables the
// literal captures from the enclosing unit, and the decoder-owned
// fields it reads through them. A literal that runs later (go, defer,
// Defer) may not capture a pointer to a decoder-owned Message at all:
// by then the decoder has handed the same message to the next datagram.
func (bo *bufOwnFunc) capturedTaint(lit *ast.FuncLit, later bool) taintClass {
	var t taintClass
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		// m.Data of a captured Message parameter: the variable is clean,
		// the field it reaches is the decoder's.
		if sel, ok := n.(*ast.SelectorExpr); ok && bo.selectorTaint(sel) == taintCallback {
			t = taintCallback
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := bo.pkg.Info.Uses[id]
		if obj == nil || bo.cleansed[obj] {
			return true
		}
		if ct := bo.taint[obj]; ct > t {
			t = ct
		}
		if ct := bo.carrier[obj]; ct > t {
			t = ct
		}
		if later && bo.msgParams[obj] && isPointer(obj.Type()) {
			t = max(t, taintCallback)
		}
		return true
	})
	return t
}

// scanSinks walks the unit flagging every escape of a tainted value.
func (bo *bufOwnFunc) scanSinks(body *ast.BlockStmt) {
	inspectUnit(body, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return
			}
			for i := range s.Lhs {
				bo.checkStore(s.Lhs[i], s.Rhs[i])
			}
		case *ast.SendStmt:
			if t := bo.exprTaint(s.Value); t != taintNone {
				bo.pass.Reportf(s.Arrow,
					"%s sent on a channel: the receiver outlives the callback that owns it; copy first (append([]byte(nil), buf...))", t)
			}
		case *ast.GoStmt:
			bo.checkAsyncCall(s.Call, "go")
		case *ast.DeferStmt:
			bo.checkAsyncCall(s.Call, "defer")
		case *ast.CallExpr:
			if isEntryHookRegistrar(s) {
				bo.checkAsyncCall(s, "Defer")
			}
		}
	})
}

// isEntryHookRegistrar reports whether the call registers a function
// with the transport's end-of-entry hook (transport.Deferrer): like a
// go or defer statement's, its closure runs after the delivery callback
// that registered it has returned — and after every later datagram of
// the batch has reused the decoder's storage.
func isEntryHookRegistrar(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Defer"
}

// checkStore flags assignments whose target outlives the function.
func (bo *bufOwnFunc) checkStore(lhs, rhs ast.Expr) {
	t := bo.exprTaint(rhs)
	if t == taintNone {
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := bo.defOrUse(l)
		if obj == nil {
			return
		}
		// Package-level variable: escapes by definition.
		if !bo.local[obj] && obj.Parent() == bo.pkg.Types.Scope() {
			bo.pass.Reportf(l.Pos(),
				"%s stored to package variable %s: it outlives the callback; copy first", t, l.Name)
		}
	case *ast.SelectorExpr:
		sel, ok := bo.pkg.Info.Selections[l]
		if ok && bo.scratch[sel.Obj()] {
			return // scratch absorbs callback-scoped data by design
		}
		// Stores into locally declared value structs stay local; the
		// variable becomes a carrier so its later escapes are flagged.
		if root := selectorRoot(l.X); root != nil {
			if obj := bo.defOrUse(root); obj != nil && bo.local[obj] && !isPointer(obj.Type()) && bo.pointee[obj] == pointeeUnknown {
				if obj.Parent() != bo.pkg.Types.Scope() {
					bo.setCarrier(obj, t)
					return
				}
			}
			if obj := bo.defOrUse(root); obj != nil && bo.local[obj] && bo.pointee[obj] == pointeeLocal {
				bo.setCarrier(obj, t)
				return
			}
			if obj := bo.defOrUse(root); obj != nil && bo.pointee[obj] == pointeeScratch {
				return
			}
		}
		bo.pass.Reportf(l.Pos(),
			"%s stored to field %s: it outlives the callback that owns the buffer; copy first (append([]byte(nil), buf...))", t, l.Sel.Name)
	case *ast.StarExpr:
		if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
			if obj := bo.defOrUse(id); obj != nil {
				switch bo.pointee[obj] {
				case pointeeScratch:
					return
				case pointeeLocal:
					bo.setCarrier(obj, t)
					return
				}
			}
		}
		bo.pass.Reportf(l.Pos(),
			"%s stored through a pointer that escapes this function; copy first", t)
	case *ast.IndexExpr:
		baseT := bo.pkg.Info.TypeOf(l.X)
		if baseT != nil {
			if _, isMap := baseT.Underlying().(*types.Map); isMap {
				bo.pass.Reportf(l.Pos(),
					"%s inserted into a map: the entry outlives the callback that owns the buffer; copy first", t)
				return
			}
		}
		if root := selectorRoot(l.X); root != nil {
			if obj := bo.defOrUse(root); obj != nil && bo.local[obj] {
				bo.setCarrier(obj, t)
				return
			}
		}
		bo.pass.Reportf(l.Pos(),
			"%s stored into a non-local slice element; copy first", t)
	}
}

func (bo *bufOwnFunc) setCarrier(obj types.Object, t taintClass) {
	if t > bo.carrier[obj] {
		bo.carrier[obj] = t
	}
}

// checkAsyncCall flags go/defer calls and end-of-entry registrations
// that smuggle a tainted buffer into a later execution context —
// captured by the closure or passed as an argument (a closure passed as
// an argument carries what it captures).
func (bo *bufOwnFunc) checkAsyncCall(call *ast.CallExpr, kw string) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		if t := bo.capturedTaint(lit, true); t != taintNone {
			bo.pass.Reportf(call.Pos(),
				"%s captured by a %s closure: it runs after the callback returns and the buffer is reused; copy first", t, kw)
		}
	}
	for _, a := range call.Args {
		t := bo.exprTaint(a)
		if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			t = bo.capturedTaint(lit, true)
		}
		if t != taintNone {
			bo.pass.Reportf(a.Pos(),
				"%s passed to a %s call: it runs after the callback returns and the buffer is reused; copy first", t, kw)
		}
	}
}

// inspectUnit walks a function body without descending into nested
// function literals (each literal is analyzed as its own unit).
func inspectUnit(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
