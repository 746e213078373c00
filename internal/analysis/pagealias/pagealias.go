// Package pagealias flags pinned-page memory that outlives its pin.
//
// The zero-copy scan paths (RC#2: blas.L2SqrNTRows, the SQ8 decomposed
// scan) score tuple bytes in place on pinned frames: every []byte or
// []float32 obtained from buf.Page() — directly, or through any chain
// of helpers (page.Page.Item, pase.Float32View, heap accessors) — is
// valid only while buf's pin is held. Once Release runs, the frame may
// be evicted and rewritten under the slice. This analyzer makes that
// lifetime rule mechanical:
//
//   - a value derived from a pinned frame must not be used after a path
//     on which the frame's Release has run;
//   - it must not escape the frame's scope: stored into a struct field,
//     map, or package variable, written through a pointer, sent on a
//     channel, or captured by a goroutine;
//   - it may be returned only when it derives from a *Buf parameter
//     (the caller holds the pin, and the function's interprocedural
//     summary carries the derivation to the caller's own check), or
//     when the function also transfers the pin itself
//     (//vetvec:ownership-transfer and the buffer returned alongside).
//
// Derivation is computed from the interprocedural summary table
// (Pass.Summaries): helper calls propagate both memory aliasing
// (result reuses an argument's backing array) and page derivation
// (result comes from an argument buffer's pinned frame), so the
// analysis sees through pase.Float32View-style reinterpretation and
// page.Page accessors without annotations.
//
// Two structural escapes are deliberately legal:
//
//   - passing a page-derived value as a call argument — the callback
//     idiom (heap.Get, bucket-scan visitors) hands borrowed views down
//     the stack, which is exactly the zero-copy design;
//   - storing views into a struct that also carries the pins
//     (a field of type *buffer.Buf or []*buffer.Buf): a pin-escorted
//     holder like pase/ivf's Run keeps the frames pinned
//     for as long as the views live, which is the invariant this
//     analyzer exists to protect.
//
// Sites that provably copy (and so are safe despite the syntax) carry
// //vetvec:page-copied; append([]byte(nil), view...) and copy() into a
// fresh buffer need no directive because element-wise copies of scalar
// data never propagate derivation.
package pagealias

import (
	"go/ast"
	"go/token"
	"go/types"

	"vecstudy/internal/analysis"
)

// CopiedDirective suppresses an escape report at a site that provably
// copies the bytes out of the pinned frame.
const CopiedDirective = "page-copied"

// Analyzer is the pagealias checker.
var Analyzer = &analysis.Analyzer{
	Name: "pagealias",
	Doc:  "no slice or pointer derived from a pinned page may be used after, or escape past, the frame's Release",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				analyzeFunc(pass, fd)
			}
		}
	}
	return nil
}

// origins maps each variable to the set of *buffer.Buf variables whose
// pinned frame its value may be derived from.
type origins map[*types.Var]map[*types.Var]bool

// checker analyzes one function.
type checker struct {
	pass   *analysis.Pass
	fd     *ast.FuncDecl
	org    origins
	params map[*types.Var]bool // receiver-first parameter set
	// rel is path state: Buf variables whose Release has (possibly) run
	// on the current path, keyed to the release position for messages.
	reported map[token.Pos]bool
	changed  bool
}

// relState is the may-released set threaded through the path walk.
type relState map[*types.Var]token.Pos

func (s relState) clone() relState {
	c := make(relState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func analyzeFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	c := &checker{
		pass:     pass,
		fd:       fd,
		org:      make(origins),
		params:   make(map[*types.Var]bool),
		reported: make(map[token.Pos]bool),
	}
	if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
		sig := fn.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			c.params[recv] = true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			c.params[sig.Params().At(i)] = true
		}
	}
	// Phase A: flow-insensitive derivation table, to a fixpoint so
	// chains resolve regardless of statement order.
	for range [8]int{} {
		c.changed = false
		c.buildOrigins()
		if !c.changed {
			break
		}
	}
	// Phase B: path-sensitive walk checking uses and escapes against
	// may-released pins.
	c.walkStmts(fd.Body.List, make(relState))
}

// --- phase A: derivation table ----------------------------------------------

func (c *checker) addOrigins(v *types.Var, from map[*types.Var]bool) {
	if v == nil || len(from) == 0 {
		return
	}
	dst := c.org[v]
	if dst == nil {
		dst = make(map[*types.Var]bool)
		c.org[v] = dst
	}
	for o := range from {
		if !dst[o] {
			dst[o] = true
			c.changed = true
		}
	}
}

func (c *checker) buildOrigins() {
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
				if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
					for i, lhs := range st.Lhs {
						c.propagateStore(lhs, c.callOrigins(call, len(st.Lhs))[i])
					}
					return true
				}
			}
			for i, lhs := range st.Lhs {
				if i >= len(st.Rhs) {
					break
				}
				c.propagateStore(lhs, c.exprOrigins(st.Rhs[i]))
			}
		case *ast.ValueSpec:
			for i, val := range st.Values {
				if i < len(st.Names) {
					if v, ok := c.pass.Info.Defs[st.Names[i]].(*types.Var); ok {
						c.addOrigins(v, c.exprOrigins(val))
					}
				}
			}
		case *ast.RangeStmt:
			if st.Value != nil {
				if v := identVar(c.pass.Info, st.Value); v != nil && derivable(v.Type()) {
					c.addOrigins(v, c.exprOrigins(st.X))
				}
			}
		}
		return true
	})
}

// propagateStore records derivation flowing into an assignment target:
// plain variables accumulate origins, and stores into a local value's
// field or element taint the local itself. Stores through pointers,
// parameters, or package variables do NOT propagate — those are phase
// B's escape reports, and folding them into the base variable would
// smear page derivation over unrelated (scalar-holding) fields of the
// same struct.
func (c *checker) propagateStore(lhs ast.Expr, from map[*types.Var]bool) {
	if len(from) == 0 {
		return
	}
	switch t := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		c.addOrigins(identVar(c.pass.Info, t), from)
	case *ast.SelectorExpr:
		if c.localValueRoot(t.X) {
			c.propagateStore(t.X, from)
		}
	case *ast.IndexExpr:
		if c.localValueRoot(t.X) {
			c.propagateStore(t.X, from)
		}
	}
}

// derivable mirrors the summary layer's taintable: only these types can
// carry a pointer into a pinned frame.
func derivable(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

// exprOrigins computes the pinned-frame origins of one expression.
func (c *checker) exprOrigins(expr ast.Expr) map[*types.Var]bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v := identVar(c.pass.Info, e); v != nil {
			return c.org[v]
		}
	case *ast.SelectorExpr:
		if sel, ok := c.pass.Info.Selections[e]; ok && sel.Kind() == types.FieldVal && derivable(sel.Type()) {
			return c.exprOrigins(e.X)
		}
	case *ast.IndexExpr:
		if tv, ok := c.pass.Info.Types[e]; ok && derivable(tv.Type) {
			return c.exprOrigins(e.X)
		}
	case *ast.SliceExpr:
		return c.exprOrigins(e.X)
	case *ast.StarExpr:
		return c.exprOrigins(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if idx, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok {
				return union(c.exprOrigins(idx.X), c.exprOrigins(e.X))
			}
			return c.exprOrigins(e.X)
		}
	case *ast.CompositeLit:
		var out map[*types.Var]bool
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = union(out, c.exprOrigins(el))
		}
		return out
	case *ast.TypeAssertExpr:
		return c.exprOrigins(e.X)
	case *ast.CallExpr:
		return c.callOrigins(e, 1)[0]
	}
	return nil
}

func union(a, b map[*types.Var]bool) map[*types.Var]bool {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make(map[*types.Var]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// callOrigins computes the origins of each of a call's n results.
func (c *checker) callOrigins(call *ast.CallExpr, n int) []map[*types.Var]bool {
	out := make([]map[*types.Var]bool, n)
	info := c.pass.Info
	// Conversion: pointer-shaped reinterpretations keep the memory.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if n == 1 && len(call.Args) == 1 {
			src := info.Types[call.Args[0]].Type
			if src != nil && derivable(tv.Type) && derivable(src) {
				out[0] = c.exprOrigins(call.Args[0])
			}
		}
		return out
	}
	// buf.Page(): the root derivation.
	if analysis.IsMethod(info, call, analysis.BufPoolPath, "Buf", "Page") {
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if v := identVar(info, sel.X); v != nil && n == 1 {
			out[0] = map[*types.Var]bool{v: true}
		}
		return out
	}
	if fn := analysis.StaticCallee(info, call); fn != nil {
		// unsafe.Slice / unsafe.SliceData / unsafe.Add reinterpret.
		if fn.Pkg() != nil && fn.Pkg().Path() == "unsafe" {
			var t map[*types.Var]bool
			for _, arg := range call.Args {
				t = union(t, c.exprOrigins(arg))
			}
			if n > 0 {
				out[0] = t
			}
			return out
		}
		if sum := c.pass.Summaries.Lookup(fn); sum != nil {
			args := analysis.CallArgs(info, call)
			for ri := 0; ri < n && ri < len(sum.Results); ri++ {
				r := sum.Results[ri]
				for j, arg := range args {
					if j >= 64 {
						break
					}
					bit := uint64(1) << uint(j)
					if r.Aliases&bit != 0 {
						out[ri] = union(out[ri], c.exprOrigins(arg))
					}
					if r.PageOf&bit != 0 {
						// Result derived from arg j's pinned frame.
						if v := identVar(info, arg); v != nil {
							out[ri] = union(out[ri], map[*types.Var]bool{v: true})
						}
					}
				}
			}
			return out
		}
	}
	// Builtins: append propagates its base (element-wise scalar copies
	// do not — append([]byte(nil), view...) is the blessed copy idiom).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && n == 1 {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" {
			t := c.exprOrigins(call.Args[0])
			for _, extra := range call.Args[1:] {
				if tv, ok := info.Types[extra]; ok && spreadDerivable(tv.Type, call.Ellipsis != token.NoPos) {
					t = union(t, c.exprOrigins(extra))
				}
			}
			out[0] = t
		}
	}
	return out
}

func spreadDerivable(t types.Type, ellipsis bool) bool {
	if ellipsis {
		if sl, ok := t.Underlying().(*types.Slice); ok {
			return derivable(sl.Elem())
		}
		return false
	}
	return derivable(t)
}

// --- phase B: path walk ------------------------------------------------------

func (c *checker) reportOnce(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// checkUse reports any value in expr derived from a may-released frame.
// skip, when non-nil, is an expression subtree to leave alone (e.g. the
// receiver of the Release call itself).
func (c *checker) checkUse(expr ast.Expr, rel relState, skip ast.Expr) {
	if expr == nil || len(rel) == 0 {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		if n == skip {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures may run while the pin is still held
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := c.pass.Info.Uses[id].(*types.Var)
		if v == nil {
			return true
		}
		// The buffer itself: buf.Page() after Release panics at runtime.
		if relPos, released := rel[v]; released && isBufVar(v) {
			if sel, isSel := selParent(expr, id); isSel && sel.Sel.Name == "Page" {
				c.reportOnce(id.Pos(), "%s.Page() after %s was released at %s", v.Name(), v.Name(), c.pass.Fset.Position(relPos))
				return true
			}
		}
		for o := range c.org[v] {
			if relPos, released := rel[o]; released {
				c.reportOnce(id.Pos(), "%s is derived from the pinned page of %s, which was released at %s", v.Name(), o.Name(), c.pass.Fset.Position(relPos))
			}
		}
		return true
	})
}

// selParent reports whether id is the X of a selector within expr,
// returning that selector. Only used to phrase Page-after-Release.
func selParent(root ast.Expr, id *ast.Ident) (*ast.SelectorExpr, bool) {
	var found *ast.SelectorExpr
	ast.Inspect(root, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.X == id {
			found = sel
			return false
		}
		return true
	})
	return found, found != nil
}

// walkStmts threads the may-released set through a statement list.
func (c *checker) walkStmts(stmts []ast.Stmt, rel relState) (relState, bool) {
	for _, stmt := range stmts {
		var term bool
		rel, term = c.walkStmt(stmt, rel)
		if term {
			return rel, true
		}
	}
	return rel, false
}

func (c *checker) walkStmt(stmt ast.Stmt, rel relState) (relState, bool) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if v := c.releaseOf(call); v != nil {
				c.checkUse(call, rel, nil)
				rel[v] = call.Pos()
				return rel, false
			}
		}
		c.checkUse(st.X, rel, nil)

	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			c.checkUse(rhs, rel, nil)
		}
		for i, lhs := range st.Lhs {
			// A Buf variable reassigned from a fresh acquisition is a new
			// pin: stop treating it as released.
			if v := identVar(c.pass.Info, lhs); v != nil {
				if isBufVar(v) {
					delete(rel, v)
					continue
				}
				// Fall through: a plain ident can still be a package
				// variable, which checkEscapeStore flags.
			} else {
				c.checkUse(lhs, rel, nil)
			}
			if i < len(st.Rhs) {
				c.checkEscapeStore(lhs, st.Rhs[i])
			} else if len(st.Rhs) == 1 {
				c.checkEscapeStore(lhs, st.Rhs[0])
			}
		}

	case *ast.ReturnStmt:
		for _, r := range st.Results {
			c.checkUse(r, rel, nil)
		}
		c.checkEscapeReturn(st)
		return rel, true

	case *ast.SendStmt:
		c.checkUse(st.Value, rel, nil)
		if o := c.exprOrigins(st.Value); len(o) > 0 && !c.pass.Suppressed(st.Pos(), CopiedDirective) {
			c.reportOnce(st.Pos(), "value derived from a pinned page is sent on a channel and may outlive the pin; copy it (or mark the send //vetvec:%s)", CopiedDirective)
		}

	case *ast.GoStmt:
		c.checkGoroutine(st)

	case *ast.DeferStmt:
		// Deferred releases run at exit: they cannot cause uses-after-
		// release inside the body, and pinrelease owns the leak side.

	case *ast.IfStmt:
		if st.Init != nil {
			rel, _ = c.walkStmt(st.Init, rel)
		}
		c.checkUse(st.Cond, rel, nil)
		thenRel, thenTerm := c.walkStmts(st.Body.List, rel.clone())
		elseRel, elseTerm := rel.clone(), false
		if st.Else != nil {
			elseRel, elseTerm = c.walkStmt(st.Else, elseRel)
		}
		switch {
		case thenTerm && elseTerm:
			return rel, true
		case thenTerm:
			return elseRel, false
		case elseTerm:
			return thenRel, false
		default:
			return mergeRel(thenRel, elseRel), false
		}

	case *ast.BlockStmt:
		return c.walkStmts(st.List, rel)

	case *ast.ForStmt:
		if st.Init != nil {
			rel, _ = c.walkStmt(st.Init, rel)
		}
		if st.Cond != nil {
			c.checkUse(st.Cond, rel, nil)
		}
		body, term := c.walkStmts(st.Body.List, rel.clone())
		if term {
			// The body's fallthrough path exits the function: releases on
			// it never reach the code after the loop.
			return rel, false
		}
		if st.Post != nil {
			c.walkStmt(st.Post, body)
		}
		return mergeRel(rel, body), false

	case *ast.RangeStmt:
		c.checkUse(st.X, rel, nil)
		body, term := c.walkStmts(st.Body.List, rel.clone())
		if term {
			return rel, false
		}
		return mergeRel(rel, body), false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var bodyBlock *ast.BlockStmt
		switch sw := stmt.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				rel, _ = c.walkStmt(sw.Init, rel)
			}
			if sw.Tag != nil {
				c.checkUse(sw.Tag, rel, nil)
			}
			bodyBlock = sw.Body
		case *ast.TypeSwitchStmt:
			bodyBlock = sw.Body
		case *ast.SelectStmt:
			bodyBlock = sw.Body
		}
		merged := rel
		for _, cl := range bodyBlock.List {
			var caseStmts []ast.Stmt
			switch cc := cl.(type) {
			case *ast.CaseClause:
				caseStmts = cc.Body
			case *ast.CommClause:
				caseStmts = cc.Body
			}
			out, term := c.walkStmts(caseStmts, rel.clone())
			if !term {
				merged = mergeRel(merged, out)
			}
		}
		return merged, false

	case *ast.BranchStmt:
		return rel, st.Tok == token.BREAK || st.Tok == token.CONTINUE || st.Tok == token.GOTO

	case *ast.LabeledStmt:
		return c.walkStmt(st.Stmt, rel)

	case *ast.DeclStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.checkUse(e, rel, nil)
				return false
			}
			return true
		})
	}
	return rel, false
}

// mergeRel unions may-released sets: released on either branch means a
// later use is unsafe on some execution.
func mergeRel(a, b relState) relState {
	for v, pos := range b {
		if _, ok := a[v]; !ok {
			a[v] = pos
		}
	}
	return a
}

// releaseOf resolves a statement-level call that certainly drops a pin:
// v.Release(), or a summarized callee that releases the argument.
func (c *checker) releaseOf(call *ast.CallExpr) *types.Var {
	info := c.pass.Info
	if analysis.IsMethod(info, call, analysis.BufPoolPath, "Buf", "Release") {
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return identVar(info, sel.X)
	}
	if sum := c.pass.Summaries.Callee(info, call); sum != nil {
		args := analysis.CallArgs(info, call)
		for i, a := range args {
			if i < len(sum.Bufs) && sum.Bufs[i] == analysis.BufReleases {
				if v := identVar(info, a); v != nil {
					return v
				}
			}
		}
	}
	return nil
}

// --- escape checks -----------------------------------------------------------

// checkEscapeStore flags stores of page-derived values into non-local
// targets: struct fields (unless the struct escorts the pins), writes
// through pointers, map/slice elements of non-local bases, and package
// variables.
func (c *checker) checkEscapeStore(lhs, rhs ast.Expr) {
	from := c.exprOrigins(rhs)
	if len(from) == 0 {
		return
	}
	kind, base, escapes := c.storeTarget(lhs)
	if !escapes {
		return
	}
	if c.pass.Suppressed(lhs.Pos(), CopiedDirective) {
		return
	}
	if base != nil && c.pinEscortedHolder(base) {
		return
	}
	c.reportOnce(lhs.Pos(), "value derived from a pinned page escapes into %s and may outlive the pin; copy the bytes (append([]byte(nil), v...)) or mark the store //vetvec:%s", kind, CopiedDirective)
}

// storeTarget classifies an assignment target. It returns a description,
// the selector base expression when the target is a field (for the
// pin-escorted-holder rule), and whether the store escapes function
// scope.
func (c *checker) storeTarget(lhs ast.Expr) (string, ast.Expr, bool) {
	switch t := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		v := identVar(c.pass.Info, t)
		if v == nil {
			return "", nil, false
		}
		if v.Parent() == v.Pkg().Scope() {
			return "package variable " + v.Name(), nil, true
		}
		return "", nil, false // local or parameter variable: tracked, not an escape
	case *ast.SelectorExpr:
		// x.f = view: escapes unless x is a plain local value.
		if c.localValueRoot(t.X) {
			return "", nil, false
		}
		return "a struct field", t.X, true
	case *ast.IndexExpr:
		if c.localValueRoot(t.X) {
			return "", nil, false
		}
		if sel, ok := ast.Unparen(t.X).(*ast.SelectorExpr); ok {
			return "a struct field element", sel.X, true
		}
		return "a map or slice element", nil, true
	case *ast.StarExpr:
		return "memory behind a pointer", nil, true
	}
	return "", nil, false
}

// localValueRoot reports whether expr bottoms out in a non-pointer local
// variable: stores into it stay inside this frame, and the derivation
// table already tracks them.
func (c *checker) localValueRoot(expr ast.Expr) bool {
	switch t := ast.Unparen(expr).(type) {
	case *ast.Ident:
		v := identVar(c.pass.Info, t)
		if v == nil || c.params[v] || v.Parent() == v.Pkg().Scope() {
			return false
		}
		if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
			return false
		}
		return true
	case *ast.SelectorExpr:
		return c.localValueRoot(t.X)
	case *ast.IndexExpr:
		return c.localValueRoot(t.X)
	}
	return false
}

// pinEscortedHolder reports whether base's struct type also declares a
// *buffer.Buf (or []*buffer.Buf) field: such a holder carries the pins
// alongside the views, so storing views into it preserves the lifetime
// invariant (pase/ivf's Run pattern).
func (c *checker) pinEscortedHolder(base ast.Expr) bool {
	tv, ok := c.pass.Info.Types[ast.Unparen(base)]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if sl, ok := ft.Underlying().(*types.Slice); ok {
			ft = sl.Elem()
		}
		if ptr, ok := ft.(*types.Pointer); ok && analysis.NamedType(ptr.Elem(), analysis.BufPoolPath, "Buf") {
			return true
		}
	}
	return false
}

// checkEscapeReturn flags returning a value derived from a locally
// pinned frame, unless the function also hands the pin to the caller
// (//vetvec:ownership-transfer with the buffer among the results).
// Values derived from *Buf parameters may be returned freely: the
// caller holds the pin, and the summary layer carries the derivation
// into the caller's own pagealias check.
func (c *checker) checkEscapeReturn(ret *ast.ReturnStmt) {
	transfer := c.pass.FuncDirective(c.fd, "ownership-transfer")
	returnedBufs := make(map[*types.Var]bool)
	for _, r := range ret.Results {
		if v := identVar(c.pass.Info, r); v != nil && isBufVar(v) {
			returnedBufs[v] = true
		}
	}
	for _, r := range ret.Results {
		for o := range c.exprOrigins(r) {
			if c.params[o] {
				continue // caller holds this pin
			}
			if transfer && returnedBufs[o] {
				continue // pin travels with the view
			}
			if c.pass.Suppressed(r.Pos(), CopiedDirective) {
				continue
			}
			c.reportOnce(r.Pos(), "returned value is derived from the pinned page of local buffer %s; the pin does not travel with it — copy the bytes or return the buffer under //vetvec:ownership-transfer", o.Name())
		}
	}
}

// checkGoroutine flags page-derived values reaching a goroutine, either
// as call arguments or captured by the closure.
func (c *checker) checkGoroutine(st *ast.GoStmt) {
	flag := func(pos token.Pos, how string) {
		if c.pass.Suppressed(st.Pos(), CopiedDirective) || c.pass.Suppressed(pos, CopiedDirective) {
			return
		}
		c.reportOnce(pos, "value derived from a pinned page is %s a goroutine, which may run after Release; copy the bytes first", how)
	}
	for _, arg := range st.Call.Args {
		if len(c.exprOrigins(arg)) > 0 {
			flag(arg.Pos(), "passed to")
		}
	}
	if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := c.pass.Info.Uses[id].(*types.Var); ok && len(c.org[v]) > 0 {
				flag(id.Pos(), "captured by")
			}
			return true
		})
	}
}

// --- small helpers -----------------------------------------------------------

func isBufVar(v *types.Var) bool {
	ptr, ok := v.Type().(*types.Pointer)
	if !ok {
		return false
	}
	return analysis.NamedType(ptr.Elem(), analysis.BufPoolPath, "Buf")
}

func identVar(info *types.Info, expr ast.Expr) *types.Var {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Defs[id].(*types.Var)
	return v
}
