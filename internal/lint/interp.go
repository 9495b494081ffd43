package lint

// interp.go is the forward dataflow engine under ledger: a structured
// abstract interpreter over function bodies that keeps a bounded *set*
// of path states (a disjunctive must/may lattice over one fact mask)
// instead of a single joined state, so correlations like "parked was set
// exactly on the path where depAdmit counted the park" survive to the
// branch that tests them.
//
// The engine owns control flow, condition refinement, and the
// conditional-summary protocol; a domain (ipDomain) owns the meaning of
// calls, increments, and exits. Summaries are per-exit: each callee
// return path contributes a tuple of abstract result values (nil /
// non-nil / constant / unknown) plus an opaque payload the domain
// interprets (ledger's counter families). At a call site the caller
// FORKS one path state per payload group and remembers the group's
// result tuples; a later `if err != nil` or `switch verdict { case
// depParkStage: ... }` then filters states whose tuples cannot match,
// which is exactly how each arm after serveLaunch's depAdmit call is
// proven to count one outcome.
//
// Soundness caveats (documented in DESIGN.md §11): loops are unrolled
// to a small fixed bound (the fact mask only grows, so this converges in
// practice); paths beyond maxPathStates are joined with loss of
// correlation (never of may-facts); dynamic calls (function values,
// interface methods) are treated by the domain's conservative
// unknown-call rule.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// ---------------------------------------------------------------- results

type resKind uint8

const (
	resUnknown resKind = iota
	resNil
	resNonNil
	resConst
)

// resVal abstracts one return value of one concrete return path.
type resVal struct {
	kind resKind
	val  constant.Value // resConst only
}

// mayBeNil / mayBeNonNil implement the may-semantics branch filters.
func (r resVal) mayBeNil() bool    { return r.kind == resNil || r.kind == resUnknown }
func (r resVal) mayBeNonNil() bool { return r.kind != resNil }

// mayEqual reports whether this result could equal the constant.
func (r resVal) mayEqual(v constant.Value) bool {
	if r.kind != resConst || v == nil {
		return r.kind != resNil // a nil result never equals a constant
	}
	return constant.Compare(r.val, token.EQL, v)
}

// mayDiffer reports whether this result could differ from the constant.
func (r resVal) mayDiffer(v constant.Value) bool {
	if r.kind != resConst || v == nil {
		return true
	}
	return constant.Compare(r.val, token.NEQ, v)
}

// ------------------------------------------------------------- summaries

// sumExit is one payload group of a callee's return paths: every
// concrete return path that has the same observable effect (payload),
// with the abstract result tuple of each path kept for caller-side
// refinement.
type sumExit struct {
	tuples  [][]resVal
	payload uint64
}

// funcSummary is a callee's behavior, grouped by payload.
type funcSummary struct {
	exits []*sumExit
}

// addSummaryExit folds one concrete exit (tuple, payload) into the
// group list.
func (s *funcSummary) addExit(tuple []resVal, payload uint64) {
	for _, e := range s.exits {
		if e.payload == payload {
			e.tuples = append(e.tuples, tuple)
			return
		}
	}
	s.exits = append(s.exits, &sumExit{tuples: [][]resVal{tuple}, payload: payload})
}

// resolveResults abstracts one return statement's values. Named-result
// bare returns and anything unrecognized resolve to unknown.
func resolveResults(info *types.Info, nresults int, ret *ast.ReturnStmt) []resVal {
	tuple := make([]resVal, nresults)
	if ret == nil || len(ret.Results) != nresults {
		return tuple // all unknown
	}
	for i, e := range ret.Results {
		e = stripParens(e)
		if tv, ok := info.Types[e]; ok {
			if tv.IsNil() {
				tuple[i] = resVal{kind: resNil}
				continue
			}
			if tv.Value != nil {
				tuple[i] = resVal{kind: resConst, val: tv.Value}
				continue
			}
		}
		// Recognize the common known-non-nil error shapes: errors.New /
		// fmt.Errorf calls and package-level Err* sentinel variables.
		switch x := e.(type) {
		case *ast.CallExpr:
			if fn := staticCalleeFunc(info, x); fn != nil && fn.Pkg() != nil {
				p, n := fn.Pkg().Path(), fn.Name()
				if (p == "errors" && n == "New") || (p == "fmt" && n == "Errorf") {
					tuple[i] = resVal{kind: resNonNil}
				}
			}
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && v.Parent() == v.Pkg().Scope() &&
				len(v.Name()) > 3 && v.Name()[:3] == "Err" {
				tuple[i] = resVal{kind: resNonNil}
			}
		}
	}
	return tuple
}

// ------------------------------------------------------------ path state

// condGroup is the set of still-possible callee exits a binding refers
// to. Narrowing allocates a fresh group so sibling states stay intact.
type condGroup struct {
	tuples [][]resVal
}

// condBind links one local variable to one result slot of a call whose
// summary forked this state.
type condBind struct {
	group *condGroup
	slot  int
}

// pathState is one member of the disjunctive state set: the domain's
// fact mask, constant-bool facts, pending conditional bindings, and the
// deferred calls registered so far on this path.
type pathState struct {
	mask   uint64
	bools  map[types.Object]int8 // +1 true, -1 false
	conds  map[types.Object]condBind
	defers []*ast.CallExpr
	// pendingGroup carries a call's result tuples to the enclosing
	// assignment within one statement.
	pendingGroup *condGroup
}

func newPathState() *pathState {
	return &pathState{
		bools: map[types.Object]int8{},
		conds: map[types.Object]condBind{},
	}
}

func (st *pathState) clone() *pathState {
	c := &pathState{
		mask:   st.mask,
		bools:  make(map[types.Object]int8, len(st.bools)),
		conds:  make(map[types.Object]condBind, len(st.conds)),
		defers: append([]*ast.CallExpr(nil), st.defers...),
	}
	for k, v := range st.bools {
		c.bools[k] = v
	}
	for k, v := range st.conds {
		c.conds[k] = v // groups are narrowed copy-on-write
	}
	return c
}

// narrowGroup replaces old with a filtered group in every binding of
// this state. Returns false when no tuples survive (state is dead).
func (st *pathState) narrowGroup(old *condGroup, keep func([]resVal) bool) bool {
	ng := &condGroup{}
	for _, t := range old.tuples {
		if keep(t) {
			ng.tuples = append(ng.tuples, t)
		}
	}
	if len(ng.tuples) == 0 {
		return false
	}
	for obj, cb := range st.conds {
		if cb.group == old {
			st.conds[obj] = condBind{group: ng, slot: cb.slot}
		}
	}
	return true
}

// ---------------------------------------------------------------- domain

// ipDomain gives meaning to the leaf operations the engine routes. All
// hooks may mutate the state in place; call may fork (return more
// states than it was given).
type ipDomain interface {
	call(in []*pathState, call *ast.CallExpr, w *walker) []*pathState
	incDec(st *pathState, s *ast.IncDecStmt)
	exit(st *pathState, ret *ast.ReturnStmt, pos token.Pos)
}

// ---------------------------------------------------------------- walker

const (
	maxPathStates = 40
	loopUnroll    = 3
)

type frameKind int

const (
	frameLoop frameKind = iota
	frameSwitch
	frameSelect
)

type ctrlFrame struct {
	kind  frameKind
	label string
	brk   []*pathState
	cont  []*pathState
}

type walker struct {
	info   *types.Info
	dom    ipDomain
	fnEnd  token.Pos
	frames []*ctrlFrame
	// pendingLabel is consumed by the next loop/switch/select statement.
	pendingLabel string
}

func newWalker(info *types.Info, dom ipDomain, fnEnd token.Pos) *walker {
	return &walker{info: info, dom: dom, fnEnd: fnEnd}
}

// run walks a function body from one initial state, delivering every
// path to dom.exit (explicit returns and the implicit end-of-body one).
func (w *walker) run(body *ast.BlockStmt, init *pathState) {
	out := w.stmts([]*pathState{init}, body.List)
	for _, st := range out {
		w.doExit(st, nil, w.fnEnd)
	}
}

// doExit applies the path's deferred calls (LIFO) and hands the state
// to the domain.
func (w *walker) doExit(st *pathState, ret *ast.ReturnStmt, pos token.Pos) {
	states := []*pathState{st}
	for i := len(st.defers) - 1; i >= 0; i-- {
		states = w.call(states, st.defers[i])
	}
	for _, s := range states {
		w.dom.exit(s, ret, pos)
	}
}

// capStates trims a state set that outgrew the bound: the overflow is
// joined into the last kept state with loss of correlation (bindings
// that disagree are dropped; masks are OR-joined).
func capStates(states []*pathState) []*pathState {
	if len(states) <= maxPathStates {
		return states
	}
	// First try a lossless-in-facts merge: states whose masks agree (and
	// whose defers/pending slots are identical) are folded into one
	// representative, dropping only the bools/conds entries the members
	// disagree on. Branches whose condition the engine cannot
	// refine clone both sides into identical states, so this typically
	// collapses the set well under the cap without OR-joining facts.
	byKey := map[string]*pathState{}
	merged := states[:0]
	for _, st := range states {
		key := st.mergeKey()
		rep, ok := byKey[key]
		if !ok {
			byKey[key] = st
			merged = append(merged, st)
			continue
		}
		rep.absorb(st)
	}
	if len(merged) <= maxPathStates {
		return merged
	}
	// Still over the cap: OR-join the overflow into the last kept state.
	// This loses must-facts (they degrade to may-facts), so analyzers
	// only ever see it on pathological functions.
	kept := merged[:maxPathStates]
	sink := kept[maxPathStates-1]
	for _, st := range merged[maxPathStates:] {
		sink.mask |= st.mask
		sink.absorb(st)
		sink.conds = map[types.Object]condBind{}
	}
	return kept
}

// mergeKey fingerprints the parts of a state that must match exactly for
// two states to be folded into one: the mask, the defer stack, and any
// in-flight call binding.
func (st *pathState) mergeKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%x", st.mask)
	for _, d := range st.defers {
		fmt.Fprintf(&b, "|%p", d)
	}
	fmt.Fprintf(&b, "!%p", st.pendingGroup)
	return b.String()
}

// absorb folds other into st, keeping only the refinements both agree on.
func (st *pathState) absorb(other *pathState) {
	for obj, v := range st.bools {
		if other.bools[obj] != v {
			delete(st.bools, obj)
		}
	}
	for obj, cb := range st.conds {
		ocb, ok := other.conds[obj]
		if !ok || ocb.group != cb.group || ocb.slot != cb.slot {
			delete(st.conds, obj)
		}
	}
}

func (w *walker) stmts(in []*pathState, list []ast.Stmt) []*pathState {
	for _, s := range list {
		if len(in) == 0 {
			return in
		}
		in = capStates(w.stmt(in, s))
		// Pending call results do not survive a statement boundary.
		for _, st := range in {
			st.pendingGroup = nil
		}
	}
	return in
}

func (w *walker) stmt(in []*pathState, s ast.Stmt) []*pathState {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(in, s.List)
	case *ast.EmptyStmt:
		return in
	case *ast.LabeledStmt:
		w.pendingLabel = s.Label.Name
		out := w.stmt(in, s.Stmt)
		w.pendingLabel = ""
		return out
	case *ast.ExprStmt:
		if call, ok := stripParens(s.X).(*ast.CallExpr); ok {
			if id, ok := stripParens(call.Fun).(*ast.Ident); ok && id.Name == "panic" && w.info.Uses[id] == nil {
				w.expr(in, s.X)
				return nil // aborting path: no ledger exit obligations
			}
		}
		return w.expr(in, s.X)
	case *ast.AssignStmt:
		return w.assign(in, s)
	case *ast.DeclStmt:
		return w.declStmt(in, s)
	case *ast.IncDecStmt:
		out := w.expr(in, s.X)
		for _, st := range out {
			w.dom.incDec(st, s)
		}
		return out
	case *ast.SendStmt:
		out := w.expr(in, s.Chan)
		return w.expr(out, s.Value)
	case *ast.DeferStmt:
		for _, st := range in {
			st.defers = append(st.defers, s.Call)
		}
		return in
	case *ast.GoStmt:
		out := in
		for _, a := range s.Call.Args {
			out = w.expr(out, a)
		}
		return out
	case *ast.ReturnStmt:
		out := in
		for _, e := range s.Results {
			out = w.expr(out, e)
		}
		for _, st := range out {
			w.doExit(st, s, s.Pos())
		}
		return nil
	case *ast.BranchStmt:
		return w.branchStmt(in, s)
	case *ast.IfStmt:
		return w.ifStmt(in, s)
	case *ast.ForStmt:
		return w.forStmt(in, s)
	case *ast.RangeStmt:
		return w.rangeStmt(in, s)
	case *ast.SwitchStmt:
		return w.switchStmt(in, s)
	case *ast.TypeSwitchStmt:
		return w.typeSwitchStmt(in, s)
	case *ast.SelectStmt:
		return w.selectStmt(in, s)
	default:
		return in
	}
}

func (w *walker) declStmt(in []*pathState, s *ast.DeclStmt) []*pathState {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return in
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			in = w.expr(in, v)
		}
		// Bool-literal tracking for var declarations mirrors assign.
		for i, name := range vs.Names {
			obj := w.info.Defs[name]
			if obj == nil || i >= len(vs.Values) {
				continue
			}
			for _, st := range in {
				setBoolFact(st, obj, w.info, vs.Values[i])
			}
		}
	}
	return in
}

func (w *walker) branchStmt(in []*pathState, s *ast.BranchStmt) []*pathState {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(w.frames) - 1; i >= 0; i-- {
			f := w.frames[i]
			if label != "" && f.label != label {
				continue
			}
			f.brk = append(f.brk, in...)
			return nil
		}
	case token.CONTINUE:
		for i := len(w.frames) - 1; i >= 0; i-- {
			f := w.frames[i]
			if f.kind != frameLoop {
				continue
			}
			if label != "" && f.label != label {
				continue
			}
			f.cont = append(f.cont, in...)
			return nil
		}
	case token.FALLTHROUGH:
		// Handled by switchStmt; reaching here means a malformed tree.
	case token.GOTO:
		// No gotos in the checked tree; drop the path conservatively.
	}
	return nil
}

func (w *walker) ifStmt(in []*pathState, s *ast.IfStmt) []*pathState {
	if s.Init != nil {
		in = w.stmt(in, s.Init)
	}
	in = w.expr(in, s.Cond)
	thenIn := w.filter(in, s.Cond, true)
	elseIn := w.filter(in, s.Cond, false)
	out := w.stmt(thenIn, s.Body)
	if s.Else != nil {
		out = append(out, w.stmt(elseIn, s.Else)...)
	} else {
		out = append(out, elseIn...)
	}
	return capStates(out)
}

func (w *walker) forStmt(in []*pathState, s *ast.ForStmt) []*pathState {
	frame := &ctrlFrame{kind: frameLoop, label: w.pendingLabel}
	w.pendingLabel = ""
	if s.Init != nil {
		in = w.stmt(in, s.Init)
	}
	w.frames = append(w.frames, frame)
	var exits []*pathState
	cur := in
	for iter := 0; iter < loopUnroll && len(cur) > 0; iter++ {
		if s.Cond != nil {
			cur = w.expr(cur, s.Cond)
			exits = append(exits, w.filter(cur, s.Cond, false)...)
			cur = w.filter(cur, s.Cond, true)
		}
		cur = w.stmt(cur, s.Body)
		cur = append(cur, frame.cont...)
		frame.cont = nil
		if s.Post != nil {
			cur = w.stmt(cur, s.Post)
		}
		cur = capStates(cur)
	}
	// Paths still circulating after the unroll bound exit through the
	// condition one final time (an uncondition loop's residue can only
	// leave via break, already collected in the frame).
	if s.Cond != nil && len(cur) > 0 {
		cur = w.expr(cur, s.Cond)
		exits = append(exits, w.filter(cur, s.Cond, false)...)
	}
	w.frames = w.frames[:len(w.frames)-1]
	exits = append(exits, frame.brk...)
	return capStates(exits)
}

func (w *walker) rangeStmt(in []*pathState, s *ast.RangeStmt) []*pathState {
	frame := &ctrlFrame{kind: frameLoop, label: w.pendingLabel}
	w.pendingLabel = ""
	in = w.expr(in, s.X)
	// Zero-iteration exit.
	exits := make([]*pathState, 0, len(in))
	for _, st := range in {
		exits = append(exits, st.clone())
	}
	w.frames = append(w.frames, frame)
	cur := in
	for iter := 0; iter < loopUnroll && len(cur) > 0; iter++ {
		cur = w.stmt(cur, s.Body)
		cur = append(cur, frame.cont...)
		frame.cont = nil
		cur = capStates(cur)
		exits = append(exits, cloneAll(cur)...)
	}
	w.frames = w.frames[:len(w.frames)-1]
	exits = append(exits, frame.brk...)
	return capStates(exits)
}

func cloneAll(states []*pathState) []*pathState {
	out := make([]*pathState, len(states))
	for i, st := range states {
		out[i] = st.clone()
	}
	return out
}

func (w *walker) switchStmt(in []*pathState, s *ast.SwitchStmt) []*pathState {
	frame := &ctrlFrame{kind: frameSwitch, label: w.pendingLabel}
	w.pendingLabel = ""
	if s.Init != nil {
		in = w.stmt(in, s.Init)
	}
	var tagObj types.Object
	if s.Tag != nil {
		in = w.expr(in, s.Tag)
		if id, ok := stripParens(s.Tag).(*ast.Ident); ok {
			tagObj = w.info.Uses[id]
		}
	}
	w.frames = append(w.frames, frame)

	// Collect every constant case value for the default clause's
	// exclusion set.
	var allConsts []constant.Value
	allConstant := s.Tag != nil
	for _, cs := range s.Body.List {
		cc := cs.(*ast.CaseClause)
		for _, e := range cc.List {
			if tv, ok := w.info.Types[e]; ok && tv.Value != nil {
				allConsts = append(allConsts, tv.Value)
			} else {
				allConstant = false
			}
		}
	}

	var out []*pathState
	var fallthroughIn []*pathState
	hasDefault := false
	for _, cs := range s.Body.List {
		cc := cs.(*ast.CaseClause)
		clauseIn := w.refineCase(in, s, tagObj, cc, allConsts)
		clauseIn = append(clauseIn, fallthroughIn...)
		fallthroughIn = nil
		if cc.List == nil {
			hasDefault = true
		}
		body := cc.Body
		fallsThrough := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				body = body[:n-1]
			}
		}
		clauseOut := w.stmts(clauseIn, body)
		if fallsThrough {
			fallthroughIn = clauseOut
		} else {
			out = append(out, clauseOut...)
		}
	}
	out = append(out, fallthroughIn...)
	// Without a default, execution may skip every clause. With a bound
	// constant tag whose cases cover every possible summary exit, the
	// residue filter leaves nothing.
	if !hasDefault {
		residue := in
		if tagObj != nil && allConstant {
			residue = w.filterConstResidue(in, tagObj, allConsts)
		} else {
			residue = cloneAll(in)
		}
		out = append(out, residue...)
	}
	w.frames = w.frames[:len(w.frames)-1]
	out = append(out, frame.brk...)
	return capStates(out)
}

// refineCase produces the entry states of one case clause, narrowing
// constant-bound tags where possible.
func (w *walker) refineCase(in []*pathState, s *ast.SwitchStmt, tagObj types.Object, cc *ast.CaseClause, allConsts []constant.Value) []*pathState {
	if cc.List == nil { // default
		if tagObj != nil {
			return w.filterConstResidue(in, tagObj, allConsts)
		}
		return cloneAll(in)
	}
	// Walk the case expressions once (they are constants or cheap).
	var caseConsts []constant.Value
	allConst := true
	for _, e := range cc.List {
		if tv, ok := w.info.Types[e]; ok && tv.Value != nil {
			caseConsts = append(caseConsts, tv.Value)
		} else {
			allConst = false
		}
	}
	var out []*pathState
	for _, st := range in {
		c := st.clone()
		if s.Tag == nil {
			// Expression-less switch: each case is a condition; refine by
			// the single-expression case when possible.
			if len(cc.List) == 1 {
				if keep := w.refineCond(c, cc.List[0], true); !keep {
					continue
				}
			}
			out = append(out, c)
			continue
		}
		if tagObj == nil || !allConst {
			out = append(out, c)
			continue
		}
		if cb, ok := c.conds[tagObj]; ok {
			alive := c.narrowGroup(cb.group, func(t []resVal) bool {
				for _, cv := range caseConsts {
					if cb.slot < len(t) && t[cb.slot].mayEqual(cv) {
						return true
					}
				}
				return false
			})
			if !alive {
				continue
			}
		}
		out = append(out, c)
	}
	return out
}

// filterConstResidue keeps states whose bound tag may differ from every
// listed constant (the default / no-case residue).
func (w *walker) filterConstResidue(in []*pathState, tagObj types.Object, consts []constant.Value) []*pathState {
	var out []*pathState
	for _, st := range in {
		c := st.clone()
		if cb, ok := c.conds[tagObj]; ok {
			alive := c.narrowGroup(cb.group, func(t []resVal) bool {
				for _, cv := range consts {
					if cb.slot < len(t) && !t[cb.slot].mayDiffer(cv) {
						return false
					}
				}
				return true
			})
			if !alive {
				continue
			}
		}
		out = append(out, c)
	}
	return out
}

func (w *walker) typeSwitchStmt(in []*pathState, s *ast.TypeSwitchStmt) []*pathState {
	frame := &ctrlFrame{kind: frameSwitch, label: w.pendingLabel}
	w.pendingLabel = ""
	if s.Init != nil {
		in = w.stmt(in, s.Init)
	}
	w.frames = append(w.frames, frame)
	var out []*pathState
	hasDefault := false
	for _, cs := range s.Body.List {
		cc := cs.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		out = append(out, w.stmts(cloneAll(in), cc.Body)...)
	}
	if !hasDefault {
		out = append(out, in...)
	}
	w.frames = w.frames[:len(w.frames)-1]
	out = append(out, frame.brk...)
	return capStates(out)
}

func (w *walker) selectStmt(in []*pathState, s *ast.SelectStmt) []*pathState {
	frame := &ctrlFrame{kind: frameSelect, label: w.pendingLabel}
	w.pendingLabel = ""
	w.frames = append(w.frames, frame)
	var out []*pathState
	for _, cs := range s.Body.List {
		cc := cs.(*ast.CommClause)
		clause := cloneAll(in)
		if cc.Comm != nil {
			clause = w.stmt(clause, cc.Comm)
		}
		out = append(out, w.stmts(clause, cc.Body)...)
	}
	w.frames = w.frames[:len(w.frames)-1]
	out = append(out, frame.brk...)
	return capStates(out)
}

// ------------------------------------------------------------ assignment

func (w *walker) assign(in []*pathState, as *ast.AssignStmt) []*pathState {
	for _, r := range as.Rhs {
		in = w.expr(in, r)
	}
	// Walk compound LHS expressions (index/selector bases) for the calls
	// they contain; plain idents are binding targets, not uses.
	for _, l := range as.Lhs {
		if _, ok := stripParens(l).(*ast.Ident); !ok {
			in = w.expr(in, l)
		}
	}
	singleCall := len(as.Rhs) == 1
	for _, st := range in {
		if singleCall && st.pendingGroup != nil {
			for i, l := range as.Lhs {
				id, ok := stripParens(l).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := w.info.Defs[id]
				if obj == nil {
					obj = w.info.Uses[id]
				}
				if obj == nil {
					continue
				}
				st.conds[obj] = condBind{group: st.pendingGroup, slot: i}
			}
		}
		// Constant-bool tracking: `parked := false` ... `parked = true`.
		if len(as.Lhs) == len(as.Rhs) {
			for i, l := range as.Lhs {
				id, ok := stripParens(l).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := w.info.Defs[id]
				if obj == nil {
					obj = w.info.Uses[id]
				}
				if obj == nil {
					continue
				}
				setBoolFact(st, obj, w.info, as.Rhs[i])
			}
		}
	}
	return in
}

func setBoolFact(st *pathState, obj types.Object, info *types.Info, rhs ast.Expr) {
	if b, ok := obj.Type().(*types.Basic); !ok || b.Kind() != types.Bool && b.Kind() != types.UntypedBool {
		return
	}
	if tv, ok := info.Types[stripParens(rhs)]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
		if constant.BoolVal(tv.Value) {
			st.bools[obj] = 1
		} else {
			st.bools[obj] = -1
		}
		return
	}
	delete(st.bools, obj)
}

// ----------------------------------------------------------- expressions

func (w *walker) expr(in []*pathState, e ast.Expr) []*pathState {
	if e == nil || len(in) == 0 {
		return in
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return w.expr(in, e.X)
	case *ast.SelectorExpr:
		return w.expr(in, e.X)
	case *ast.CallExpr:
		return w.call(in, e)
	case *ast.UnaryExpr:
		return w.expr(in, e.X)
	case *ast.BinaryExpr:
		in = w.expr(in, e.X)
		return w.expr(in, e.Y)
	case *ast.StarExpr:
		return w.expr(in, e.X)
	case *ast.IndexExpr:
		in = w.expr(in, e.X)
		return w.expr(in, e.Index)
	case *ast.IndexListExpr:
		in = w.expr(in, e.X)
		for _, i := range e.Indices {
			in = w.expr(in, i)
		}
		return in
	case *ast.SliceExpr:
		in = w.expr(in, e.X)
		in = w.expr(in, e.Low)
		in = w.expr(in, e.High)
		return w.expr(in, e.Max)
	case *ast.TypeAssertExpr:
		return w.expr(in, e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			in = w.expr(in, el)
		}
		return in
	case *ast.KeyValueExpr:
		return w.expr(in, e.Value)
	default:
		return in
	}
}

// call delegates the whole call (including argument traversal) to the
// domain; walker helpers below carry the shared mechanics.
func (w *walker) call(in []*pathState, call *ast.CallExpr) []*pathState {
	return capStates(w.dom.call(in, call, w))
}

// walkCallArgs traverses the callee expression's receiver chain and
// every argument.
func (w *walker) walkCallArgs(in []*pathState, call *ast.CallExpr) []*pathState {
	if sel, ok := stripParens(call.Fun).(*ast.SelectorExpr); ok {
		in = w.expr(in, sel.X)
	}
	for _, a := range call.Args {
		in = w.expr(in, a)
	}
	return in
}

// forkSummary applies a callee summary: one successor state per payload
// group, with the group's result tuples bound for later refinement.
func (w *walker) forkSummary(in []*pathState, sum *funcSummary, apply func(st *pathState, ex *sumExit)) []*pathState {
	var out []*pathState
	for _, st := range in {
		for i, ex := range sum.exits {
			st2 := st
			if i < len(sum.exits)-1 {
				st2 = st.clone()
			}
			apply(st2, ex)
			st2.pendingGroup = &condGroup{tuples: ex.tuples}
			out = append(out, st2)
		}
	}
	return out
}

// ------------------------------------------------------------- filtering

// filter clones and refines each state by the branch condition; states
// whose facts contradict the taken branch are dropped.
func (w *walker) filter(in []*pathState, cond ast.Expr, taken bool) []*pathState {
	var out []*pathState
	for _, st := range in {
		c := st.clone()
		if w.refineCond(c, cond, taken) {
			out = append(out, c)
		}
	}
	return out
}

// refineCond narrows st under "cond == taken"; false means the state
// cannot reach this branch.
func (w *walker) refineCond(st *pathState, cond ast.Expr, taken bool) bool {
	cond = stripParens(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return w.refineCond(st, c.X, !taken)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if taken {
				return w.refineCond(st, c.X, true) && w.refineCond(st, c.Y, true)
			}
			return true // !(a && b): no single-state refinement
		case token.LOR:
			if !taken {
				return w.refineCond(st, c.X, false) && w.refineCond(st, c.Y, false)
			}
			return true
		case token.EQL, token.NEQ:
			eq := (c.Op == token.EQL) == taken
			if ok, alive := w.refineCompare(st, c.X, c.Y, eq); ok {
				return alive
			}
			if ok, alive := w.refineCompare(st, c.Y, c.X, eq); ok {
				return alive
			}
		}
	case *ast.Ident:
		obj := w.info.Uses[c]
		if obj == nil {
			return true
		}
		if v, ok := st.bools[obj]; ok {
			return (v > 0) == taken
		}
		// Learn the branch fact for later (`if parked { ... }` bodies).
		if taken {
			st.bools[obj] = 1
		} else {
			st.bools[obj] = -1
		}
	}
	return true
}

// refineCompare handles `lhs ==/!= rhs` where lhs is a bound variable
// and rhs is nil or a constant. Returns (handled, stateAlive).
func (w *walker) refineCompare(st *pathState, lhs, rhs ast.Expr, wantEqual bool) (bool, bool) {
	id, ok := stripParens(lhs).(*ast.Ident)
	if !ok {
		return false, true
	}
	obj := w.info.Uses[id]
	if obj == nil {
		return false, true
	}
	cb, bound := st.conds[obj]
	rtv, rok := w.info.Types[stripParens(rhs)]
	if !rok {
		return false, true
	}
	switch {
	case rtv.IsNil():
		if !bound {
			return true, true
		}
		alive := st.narrowGroup(cb.group, func(t []resVal) bool {
			if cb.slot >= len(t) {
				return true
			}
			if wantEqual {
				return t[cb.slot].mayBeNil()
			}
			return t[cb.slot].mayBeNonNil()
		})
		return true, alive
	case rtv.Value != nil:
		if bound {
			cv := rtv.Value
			alive := st.narrowGroup(cb.group, func(t []resVal) bool {
				if cb.slot >= len(t) {
					return true
				}
				if wantEqual {
					return t[cb.slot].mayEqual(cv)
				}
				return t[cb.slot].mayDiffer(cv)
			})
			return true, alive
		}
		// Bool-constant compare against a tracked bool local.
		if rtv.Value.Kind() == constant.Bool {
			if v, ok := st.bools[obj]; ok {
				want := constant.BoolVal(rtv.Value) == wantEqual
				return true, (v > 0) == want
			}
		}
		return true, true
	}
	return false, true
}
