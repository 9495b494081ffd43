package lint

// callgraph.go builds the same-module call graph the interprocedural
// analyzers (lockorder, ledger) share. Nodes are keyed
// by a stable textual function ID — "pkgpath.Func" or
// "pkgpath.(Recv).Method" — rather than by *types.Func, because the
// vettool protocol typechecks every package independently and the
// standalone driver may load fixture siblings through separate
// typechecks: object identity does not survive those boundaries, the
// rendered ID does.
//
// Three edge kinds are distinguished:
//
//   - call: a static call expression (the only kind summaries follow);
//   - ref:  a method value or function value mention outside call
//     position (`f := s.method`) — the target may run later through a
//     dynamic call the graph cannot see;
//   - bind: a function stored into a struct field or composite literal
//     (the On* callback idiom looppurity special-cases) — same dynamic
//     caveat, but the storage site is what a reviewer wants to find.
//
// ref/bind edges exist so the graph is an honest map of reachability;
// the dataflow engine treats their targets conservatively (no summary
// is applied through a dynamic edge).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"flep/internal/lint/loader"
)

type cgEdgeKind int

const (
	cgCall cgEdgeKind = iota
	cgRef
	cgBind
)

func (k cgEdgeKind) String() string {
	switch k {
	case cgCall:
		return "call"
	case cgRef:
		return "ref"
	case cgBind:
		return "bind"
	}
	return "?"
}

type cgEdge struct {
	Callee string // funcID of the target (node may be external)
	Kind   cgEdgeKind
	Pos    token.Pos
}

type cgNode struct {
	ID    string
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Pkg   *loader.Package
	Edges []cgEdge // source order
}

// callGraph is the module (or package) call graph over declared
// functions of the loaded packages. External callees appear only as
// edge targets.
type callGraph struct {
	Nodes map[string]*cgNode
	Order []string // deterministic node order: by ID
}

// funcIDOf renders the stable node key for a function object.
func funcIDOf(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name := "?"
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name()
		}
		return pkg + ".(" + name + ")." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// staticCalleeFunc resolves a call expression to its target function
// when the target is fixed at compile time: a package function, or a
// method on a concrete named type. Interface methods, function values,
// and builtins resolve to nil.
func staticCalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := stripParens(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch
			}
			return fn
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// buildCallGraph indexes every declared function in pkgs and extracts
// its outgoing edges.
func buildCallGraph(pkgs []*loader.Package) *callGraph {
	g := &callGraph{Nodes: map[string]*cgNode{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &cgNode{ID: funcIDOf(obj), Fn: obj, Decl: fd, Pkg: pkg}
				collectEdges(pkg.Info, fd.Body, node)
				g.Nodes[node.ID] = node
			}
		}
	}
	g.Order = make([]string, 0, len(g.Nodes))
	for id := range g.Nodes {
		g.Order = append(g.Order, id)
	}
	sort.Strings(g.Order)
	return g
}

// collectEdges walks one function body appending call/ref/bind edges in
// source order. A stack of ancestors classifies non-call references.
func collectEdges(info *types.Info, body *ast.BlockStmt, node *cgNode) {
	var stack []ast.Node
	funcRef := func(n ast.Node) *types.Func {
		switch e := n.(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[e].(*types.Func); ok {
				return fn
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok {
				if fn, ok := sel.Obj().(*types.Func); ok && !types.IsInterface(sel.Recv()) {
					return fn
				}
			}
		}
		return nil
	}
	// isCallFun reports whether n is exactly the Fun of its nearest
	// enclosing call (already accounted as a call edge), and whether n
	// sits in a bind context (struct-field assignment or composite
	// literal element).
	classify := func(n ast.Node) (isCallFun, isBind bool) {
		child := n
		for i := len(stack) - 2; i >= 0; i-- {
			switch p := stack[i].(type) {
			case *ast.ParenExpr:
				child = p
				continue
			case *ast.CallExpr:
				return stripParens(p.Fun) == child || p.Fun == child, false
			case *ast.SelectorExpr:
				// n is the Sel of a larger selector chain; the chain head
				// classifies instead.
				if p.Sel == child || p.X == child {
					child = p
					continue
				}
				return false, false
			case *ast.KeyValueExpr:
				if p.Value == child {
					// Composite-literal field value (the OnFinish idiom).
					return false, true
				}
				return false, false
			case *ast.AssignStmt:
				for ri, r := range p.Rhs {
					if stripParens(r) == child && ri < len(p.Lhs) {
						if _, sel := p.Lhs[ri].(*ast.SelectorExpr); sel {
							return false, true
						}
					}
				}
				return false, false
			default:
				return false, false
			}
		}
		return false, false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		switch e := n.(type) {
		case *ast.CallExpr:
			if fn := staticCalleeFunc(info, e); fn != nil {
				node.Edges = append(node.Edges, cgEdge{Callee: funcIDOf(fn), Kind: cgCall, Pos: e.Pos()})
			}
		case *ast.Ident, *ast.SelectorExpr:
			fn := funcRef(n)
			if fn == nil {
				break
			}
			// Selector idents are visited twice (chain and Sel); only
			// classify the outermost node that resolves.
			if id, ok := n.(*ast.Ident); ok {
				if len(stack) >= 2 {
					if sel, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok && sel.Sel == id {
						break
					}
				}
			}
			isCallFun, isBind := classify(n)
			if isCallFun {
				break
			}
			kind := cgRef
			if isBind {
				kind = cgBind
			}
			node.Edges = append(node.Edges, cgEdge{Callee: funcIDOf(fn), Kind: kind, Pos: n.Pos()})
		}
		return true
	})
}

// sccOrder returns the strongly connected components of the call-edge
// subgraph in bottom-up (callees-first) order, so summary computation
// can run in one pass. Components are internally sorted; singleton
// components dominate in practice.
func (g *callGraph) sccOrder() [][]string {
	// Tarjan, iterative enough for these graph sizes via recursion on a
	// few thousand nodes at most.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var next int
	var out [][]string

	var visit func(id string)
	visit = func(id string) {
		index[id] = next
		low[id] = next
		next++
		stack = append(stack, id)
		onStack[id] = true
		node := g.Nodes[id]
		for _, e := range node.Edges {
			if e.Kind != cgCall {
				continue
			}
			tgt, ok := g.Nodes[e.Callee]
			if !ok {
				continue // external
			}
			if _, seen := index[tgt.ID]; !seen {
				visit(tgt.ID)
				if low[tgt.ID] < low[id] {
					low[id] = low[tgt.ID]
				}
			} else if onStack[tgt.ID] && index[tgt.ID] < low[id] {
				low[id] = index[tgt.ID]
			}
		}
		if low[id] == index[id] {
			var comp []string
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp = append(comp, top)
				if top == id {
					break
				}
			}
			sort.Strings(comp)
			out = append(out, comp)
		}
	}
	for _, id := range g.Order {
		if _, seen := index[id]; !seen {
			visit(id)
		}
	}
	return out
}

// recursive reports whether id participates in a call cycle (including
// self-recursion) — such functions get no summary.
func (g *callGraph) recursive() map[string]bool {
	rec := map[string]bool{}
	for _, comp := range g.sccOrder() {
		if len(comp) > 1 {
			for _, id := range comp {
				rec[id] = true
			}
			continue
		}
		id := comp[0]
		for _, e := range g.Nodes[id].Edges {
			if e.Kind == cgCall && e.Callee == id {
				rec[id] = true
			}
		}
	}
	return rec
}

// dump renders the graph deterministically for golden tests: one header
// line per node, one indented line per edge in source order.
func (g *callGraph) dump(fset *token.FileSet) string {
	var b strings.Builder
	for _, id := range g.Order {
		node := g.Nodes[id]
		fmt.Fprintf(&b, "%s:\n", id)
		for _, e := range node.Edges {
			fmt.Fprintf(&b, "  %s %s\n", e.Kind, e.Callee)
		}
	}
	return b.String()
}
