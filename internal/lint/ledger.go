package lint

// ledger machine-checks the exactly-once admission accounting contract
// (DESIGN.md: Enqueued == Completed + SubmitErrors, and every launch
// reaches exactly one terminal family). Counter touches — `s.c.X++` on
// the counters struct and `s.met.X.Inc()` on the serverMetrics mirror —
// are mapped to outcome families and propagated through the engine's
// per-exit summaries, so each control-flow path of each admission entry
// point carries the set of families it increments. Entry points then
// check the path masks against their contract:
//
//   exactly-one — serveLaunch/handleLaunch (any family), rejectLaunch
//     (one of the three queue-reject families), countInvalid,
//     complete;
//   at-most-one — admit/admitAll (submit_errors only; the success
//     outcome is deferred to complete).
//
// Propagation is cut at the dependency-table maintenance functions
// (depStageDone, depCascadeLocked, …): the outcomes they count belong
// to OTHER requests (released or cascade-canceled stages), not to the
// caller's, so folding them into the caller's mask would be wrong.
// depAdmit is the exception — it classifies the current request and its
// parked-family exit is what makes serveLaunch's park path exactly-once.
//
// Categories:
//
//   ledgermissing   — an entry-point path increments no terminal family;
//   ledgerdouble    — a path increments two or more families;
//   ledgerforbidden — a path increments a family outside the entry's
//     contract, or a dependency-layer function increments a core ledger
//     counter (Enqueued/Completed/SubmitErrors) directly.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math/bits"
	"sort"
	"strings"

	"flep/internal/lint/analysis"
	"flep/internal/lint/loader"
)

var LedgerAnalyzer = &analysis.Analyzer{
	Name:       "ledger",
	Doc:        "verify each admission entry-point path increments exactly one terminal-outcome counter family",
	Categories: []string{"ledgermissing", "ledgerdouble", "ledgerforbidden"},
	Run:        runLedger,
}

// Terminal-outcome families, in bit order. TimedOut/Canceled/SLO* are
// deliberately NOT families: they annotate a launch that already has a
// terminal outcome (the invocation runs to completion after a timeout).
var ledgerFamilies = []string{
	"enqueued",
	"completed",
	"submit_errors",
	"rejected_full",
	"rejected_draining",
	"rejected_invalid",
	"rejected_shed",
	"dep_canceled",
	"rejected_dep_full",
	"parked",
}

// ledgerFields maps counter/metric field names to family bits. The
// counters struct and the serverMetrics mirror use the same field names
// at the same increment sites, which is itself part of the contract.
var ledgerFields = map[string]int{
	"Enqueued":          0,
	"Completed":         1,
	"SubmitErrors":      2,
	"RejectedFull":      3,
	"RejectedDraining":  4,
	"RejectedInvalid":   5,
	"RejectedShed":      6,
	"DepCanceled":       7,
	"RejectedDepFull":   8,
	"ModelStagesParked": 9, // the metrics-only park family
}

// Core families the dependency layer must never increment directly:
// released stages re-enter the ledger only through admitReleased's
// sanctioned boundary.
const ledgerCoreMask uint64 = 1<<0 | 1<<1 | 1<<2

type ledgerMode int

const (
	ledgerExactlyOne ledgerMode = iota
	ledgerAtMostOne
)

type ledgerEntry struct {
	mode    ledgerMode
	allowed uint64
}

func famMask(names ...string) uint64 {
	var m uint64
	for _, n := range names {
		for i, f := range ledgerFamilies {
			if f == n {
				m |= 1 << i
			}
		}
	}
	return m
}

// ledgerEntries maps Server method names to their contracts.
func ledgerEntries() map[string]ledgerEntry {
	all := uint64(1<<len(ledgerFamilies)) - 1
	return map[string]ledgerEntry{
		"handleLaunch": {ledgerExactlyOne, all},
		"serveLaunch":  {ledgerExactlyOne, all},
		"rejectLaunch": {ledgerExactlyOne, famMask("rejected_full", "rejected_shed", "rejected_draining")},
		"countInvalid": {ledgerExactlyOne, famMask("rejected_invalid")},
		"complete":     {ledgerExactlyOne, famMask("completed")},
		"admit":        {ledgerAtMostOne, famMask("submit_errors")},
		"admitAll":     {ledgerAtMostOne, famMask("submit_errors")},
	}
}

// ledgerCut lists dependency-table functions whose counted outcomes
// belong to other requests; their summaries propagate result tuples but
// an empty family mask.
var ledgerCut = map[string]bool{
	"depStageDone":          true,
	"depStageFailed":        true,
	"depCascadeLocked":      true,
	"depCloseIfDoneLocked":  true,
	"depDrainCancel":        true,
	"depEvictStalledLocked": true,
	"deliverDepCancels":     true,
}

// ledgerForbiddenScope lists functions that must not touch the core
// ledger directly (plus every dep*-prefixed Server method).
func ledgerForbiddenScope(name string) bool {
	return strings.HasPrefix(name, "dep") || name == "deliverDepCancels" || name == "admitReleased"
}

func famNames(mask uint64) string {
	var out []string
	for i, f := range ledgerFamilies {
		if mask&(1<<i) != 0 {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "+")
}

type ledgerChecker struct {
	pass     *analysis.Pass
	info     *types.Info
	sums     map[string]*funcSummary
	reported map[string]bool
}

func runLedger(pass *analysis.Pass) (any, error) {
	if !strings.Contains(pass.Pkg.Path(), "internal/server") {
		return nil, nil
	}
	pkg := &loader.Package{PkgPath: pass.Pkg.Path(), Files: pass.Files, Types: pass.Pkg, Info: pass.TypesInfo}
	c := &ledgerChecker{
		pass:     pass,
		info:     pass.TypesInfo,
		sums:     map[string]*funcSummary{},
		reported: map[string]bool{},
	}
	g := buildCallGraph([]*loader.Package{pkg})
	rec := g.recursive()
	entries := ledgerEntries()
	for _, comp := range g.sccOrder() {
		for _, id := range comp {
			node := g.Nodes[id]
			var entry *ledgerEntry
			if isServerMethod(node.Fn) {
				if e, ok := entries[node.Fn.Name()]; ok {
					entry = &e
				}
			}
			c.checkFunc(node, entry, !rec[id])
		}
	}
	return nil, nil
}

// isServerMethod reports whether fn is a method on a type named Server.
func isServerMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Server"
}

func (c *ledgerChecker) report(pos token.Pos, category, msg string) {
	key := fmt.Sprintf("%d|%s|%s", pos, category, msg)
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Reportf(pos, category, "%s", msg)
}

// counterFamily resolves `x.c.Field` / `x.met.Field` selectors to a
// family bit, requiring the field's owner to be the counters struct or
// the serverMetrics mirror.
func (c *ledgerChecker) counterFamily(e ast.Expr) (int, bool) {
	sel, ok := stripParens(e).(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	bit, ok := ledgerFields[sel.Sel.Name]
	if !ok {
		return 0, false
	}
	s, ok := c.info.Selections[sel]
	if !ok {
		return 0, false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok {
		return 0, false
	}
	owner := n.Obj().Name()
	if owner != "counters" && owner != "serverMetrics" {
		return 0, false
	}
	return bit, true
}

// ------------------------------------------------------------- domain

// ledgerDomain tracks one fact per path: the mask of families it has
// incremented (pathState.mask).
type ledgerDomain struct {
	c        *ledgerChecker
	entry    *ledgerEntry
	fnName   string
	forbid   bool // dep-layer direct-core prohibition applies
	nresults int
	sum      *funcSummary
}

func (d *ledgerDomain) hit(st *pathState, bit int, pos token.Pos) {
	st.mask |= 1 << bit
	if d.forbid && (uint64(1)<<bit)&ledgerCoreMask != 0 {
		d.c.report(pos, "ledgerforbidden",
			fmt.Sprintf("%s increments core ledger counter %s directly; released stages re-enter the ledger only through the sanctioned admission boundary", d.fnName, ledgerFamilies[bit]))
	}
}

func (d *ledgerDomain) incDec(st *pathState, s *ast.IncDecStmt) {
	if s.Tok != token.INC {
		return
	}
	if bit, ok := d.c.counterFamily(s.X); ok {
		d.hit(st, bit, s.Pos())
	}
}

func (d *ledgerDomain) call(in []*pathState, call *ast.CallExpr, w *walker) []*pathState {
	// Metric mirror increments: s.met.Family.Inc().
	if sel, ok := stripParens(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Inc" {
		if bit, ok := d.c.counterFamily(sel.X); ok {
			in = w.walkCallArgs(in, call)
			for _, st := range in {
				d.hit(st, bit, call.Pos())
			}
			return in
		}
	}
	in = w.walkCallArgs(in, call)
	fn := staticCalleeFunc(d.c.info, call)
	if fn == nil {
		return in
	}
	sum := d.c.sums[funcIDOf(fn)]
	if sum == nil {
		return in // external / dynamic / recursive: touches no ledger
	}
	return w.forkSummary(in, sum, func(st *pathState, ex *sumExit) {
		st.mask |= ex.payload
	})
}

func (d *ledgerDomain) exit(st *pathState, ret *ast.ReturnStmt, pos token.Pos) {
	mask := st.mask
	d.sum.addExit(resolveResults(d.c.info, d.nresults, ret), mask)
	if d.entry == nil {
		return
	}
	n := bits.OnesCount64(mask)
	switch {
	case n == 0:
		if d.entry.mode == ledgerExactlyOne {
			d.c.report(pos, "ledgermissing",
				fmt.Sprintf("%s: this path increments no terminal-outcome counter; every admission path must account exactly one", d.fnName))
		}
	case n > 1:
		d.c.report(pos, "ledgerdouble",
			fmt.Sprintf("%s: this path increments %d terminal-outcome families (%s); the exactly-once ledger allows one", d.fnName, n, famNames(mask)))
	case mask&^d.entry.allowed != 0:
		d.c.report(pos, "ledgerforbidden",
			fmt.Sprintf("%s: this path increments %s, outside the entry point's contract (%s)", d.fnName, famNames(mask), famNames(d.entry.allowed)))
	}
}

// checkFunc walks one function, checking entry contracts and recording
// its summary.
func (c *ledgerChecker) checkFunc(node *cgNode, entry *ledgerEntry, summarize bool) {
	sig := node.Fn.Type().(*types.Signature)
	d := &ledgerDomain{
		c:        c,
		entry:    entry,
		fnName:   node.Fn.Name(),
		forbid:   isServerMethod(node.Fn) && ledgerForbiddenScope(node.Fn.Name()),
		nresults: sig.Results().Len(),
		sum:      &funcSummary{},
	}
	// depAdmit classifies the current request, so its park increment is
	// sanctioned and its summary propagates; the other dep-layer
	// functions count OTHER requests' outcomes, so their masks are cut.
	w := newWalker(node.Pkg.Info, d, node.Decl.Body.End())
	w.run(node.Decl.Body, newPathState())
	if !summarize {
		return
	}
	sum := d.sum
	if ledgerCut[node.Fn.Name()] {
		cut := &funcSummary{}
		for _, ex := range sum.exits {
			for _, t := range ex.tuples {
				cut.addExit(t, 0)
			}
		}
		sum = cut
	}
	c.sums[node.ID] = sum
}
