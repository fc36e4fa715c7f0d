package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetFlow is detrange's interprocedural sibling: it tracks values
// whose ORDER derives from a map range — slices and strings
// accumulated across map iterations, maps.Keys/Values sequences —
// through returns, call arguments, and struct fields, into ordered
// sinks inside the deterministic packages: fmt.Fprint* and
// Write/WriteString-shaped methods (manifest and report writers),
// provenance.MultisetHash.Add/AddHash, first-wins map stores, and calls to
// module functions that feed such a sink from a parameter. PR 3's
// certByBase bug crossed exactly this function boundary: the hosts
// were collected in map order in one function and consumed
// first-wins in another, so the intra-function detrange could not see
// source and sink together. The sanctioned fix is unchanged — sort
// the collection — and sorting anywhere in the defining function
// clears the taint.
//
// The analysis is summary-based: each function gets (does it return
// map-ordered data; which parameters flow to its ordered sinks;
// which parameters flow to its results), iterated over the module
// call graph to a fixpoint, with struct fields as global taint
// carriers. It is deliberately flow-insensitive: ordering bugs are
// about where data travels, not when.
func DetFlow() *Analyzer {
	return &Analyzer{
		Name:      "detflow",
		Doc:       "map-iteration-ordered values must not reach digest/manifest/report sinks across functions",
		RunModule: runDetFlow,
	}
}

// taint is the abstract value of the lattice: real map-order taint
// (with a deterministic source description) plus a bitmask of
// parameters the value derives from.
type taint struct {
	real   bool
	src    string
	params uint64
}

func (t taint) empty() bool { return !t.real && t.params == 0 }

func (t taint) union(o taint) taint {
	out := taint{real: t.real || o.real, params: t.params | o.params}
	switch {
	case t.real && o.real:
		// Lexicographically smallest source wins, so the merge order
		// (and therefore the diagnostic) is deterministic.
		out.src = t.src
		if o.src < t.src {
			out.src = o.src
		}
	case t.real:
		out.src = t.src
	case o.real:
		out.src = o.src
	}
	return out
}

// flowSummary is one function's interprocedural contract.
type flowSummary struct {
	retTaint   bool
	retSrc     string
	retParams  uint64
	sinkParams uint64
}

// flowFunc is the per-function analysis state, persisted across
// fixpoint rounds so local taint accumulates monotonically.
type flowFunc struct {
	inf      *IndexedFunc
	sorted   map[string]bool
	paramIdx map[types.Object]int
	locals   map[types.Object]taint
}

// flowAnalysis is the module-wide fixpoint state.
type flowAnalysis struct {
	cfg      *Config
	funcs    []*flowFunc
	sums     map[*types.Func]*flowSummary
	fields   map[*types.Var]string // real-tainted struct fields -> source
	changed  bool
	emit     bool
	findings []Finding
}

func runDetFlow(cfg *Config, ix *Index) []Finding {
	fa := &flowAnalysis{
		cfg:    cfg,
		sums:   map[*types.Func]*flowSummary{},
		fields: map[*types.Var]string{},
	}
	for _, inf := range ix.Funcs {
		if inf.Decl.Body == nil {
			continue
		}
		ff := &flowFunc{
			inf:      inf,
			sorted:   sortedExprs(inf.Pkg, inf.Decl.Body),
			paramIdx: map[types.Object]int{},
			locals:   map[types.Object]taint{},
		}
		if sig, ok := inf.Fn.Type().(*types.Signature); ok {
			for i := 0; i < sig.Params().Len() && i < 64; i++ {
				ff.paramIdx[sig.Params().At(i)] = i
			}
		}
		fa.funcs = append(fa.funcs, ff)
		fa.sums[inf.Fn] = &flowSummary{}
	}
	// Chaotic iteration to a fixpoint: summaries, field taints and
	// local taints only grow, so this terminates; the round cap is a
	// belt against pathological trees.
	for round := 0; round < 20; round++ {
		fa.changed = false
		for _, ff := range fa.funcs {
			fa.analyzeFunc(ff)
		}
		if !fa.changed {
			break
		}
	}
	fa.emit = true
	for _, ff := range fa.funcs {
		fa.analyzeFunc(ff)
	}
	return fa.findings
}

// mergeLocal folds t into the object's taint, respecting the
// ever-sorted exemption.
func (fa *flowAnalysis) mergeLocal(ff *flowFunc, obj types.Object, name string, t taint) {
	if obj == nil || t.empty() || ff.sorted[name] {
		return
	}
	old := ff.locals[obj]
	merged := old.union(t)
	if merged != old {
		ff.locals[obj] = merged
		fa.changed = true
	}
}

func (fa *flowAnalysis) objOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

// exprTaint evaluates an expression in the lattice.
func (fa *flowAnalysis) exprTaint(ff *flowFunc, e ast.Expr) taint {
	pkg := ff.inf.Pkg
	switch e := e.(type) {
	case *ast.Ident:
		if ff.sorted[e.Name] {
			return taint{}
		}
		obj := fa.objOf(pkg, e)
		if obj == nil {
			return taint{}
		}
		t := ff.locals[obj]
		if i, ok := ff.paramIdx[obj]; ok {
			t.params |= 1 << uint(i)
		}
		return t
	case *ast.SelectorExpr:
		if ff.sorted[types.ExprString(e)] {
			return taint{}
		}
		var t taint
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				if src, ok := fa.fields[v]; ok {
					t = t.union(taint{real: true, src: src})
				}
			}
			t = t.union(fa.exprTaint(ff, e.X))
		}
		return t
	case *ast.IndexExpr:
		return fa.exprTaint(ff, e.X).union(fa.exprTaint(ff, e.Index))
	case *ast.CallExpr:
		return fa.callTaint(ff, e)
	case *ast.BinaryExpr:
		return fa.exprTaint(ff, e.X).union(fa.exprTaint(ff, e.Y))
	case *ast.CompositeLit:
		var t taint
		for _, el := range e.Elts {
			t = t.union(fa.exprTaint(ff, el))
		}
		return t
	case *ast.KeyValueExpr:
		return fa.exprTaint(ff, e.Value)
	case *ast.ParenExpr:
		return fa.exprTaint(ff, e.X)
	case *ast.StarExpr:
		return fa.exprTaint(ff, e.X)
	case *ast.UnaryExpr:
		return fa.exprTaint(ff, e.X)
	case *ast.TypeAssertExpr:
		return fa.exprTaint(ff, e.X)
	case *ast.SliceExpr:
		return fa.exprTaint(ff, e.X)
	}
	return taint{}
}

// callTaint models the explicit propagation list plus module-function
// summaries. Unknown calls return untainted — precision over recall,
// so len(tainted) and friends stay silent.
func (fa *flowAnalysis) callTaint(ff *flowFunc, call *ast.CallExpr) taint {
	pkg := ff.inf.Pkg
	if pkg.isAppendCall(call) {
		var t taint
		for _, arg := range call.Args {
			t = t.union(fa.exprTaint(ff, arg))
		}
		return t
	}
	fn := pkg.calleeOf(call)
	if fn == nil {
		return taint{}
	}
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "maps":
			if fn.Name() == "Keys" || fn.Name() == "Values" {
				return taint{real: true, src: "maps." + fn.Name() + " in " + displayName(ff.inf.Fn)}
			}
		case "slices":
			switch fn.Name() {
			case "Sorted", "SortedFunc", "SortedStableFunc", "Compact", "Clone":
				if fn.Name() == "Sorted" || fn.Name() == "SortedFunc" || fn.Name() == "SortedStableFunc" {
					return taint{} // sorting clears order taint
				}
				fallthrough
			case "Collect", "Concat":
				var t taint
				for _, arg := range call.Args {
					t = t.union(fa.exprTaint(ff, arg))
				}
				return t
			}
		case "strings":
			if fn.Name() == "Join" {
				var t taint
				for _, arg := range call.Args {
					t = t.union(fa.exprTaint(ff, arg))
				}
				return t
			}
		case "fmt":
			switch fn.Name() {
			case "Sprint", "Sprintf", "Sprintln", "Append", "Appendf", "Appendln":
				var t taint
				for _, arg := range call.Args {
					t = t.union(fa.exprTaint(ff, arg))
				}
				return t
			}
		}
	}
	sum, ok := fa.sums[fn]
	if !ok {
		return taint{}
	}
	var t taint
	if sum.retTaint {
		t = t.union(taint{real: true, src: sum.retSrc})
	}
	for i, arg := range call.Args {
		if i < 64 && sum.retParams&(1<<uint(i)) != 0 {
			t = t.union(fa.exprTaint(ff, arg))
		}
	}
	return t
}

// analyzeFunc runs one round over a function: propagate taint through
// assignments and ranges, fold sinks into the summary, and — in the
// emit round — report real taint reaching sinks in deterministic
// packages.
func (fa *flowAnalysis) analyzeFunc(ff *flowFunc) {
	body := ff.inf.Decl.Body
	sum := fa.sums[ff.inf.Fn]

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			fa.assign(ff, n)
		case *ast.RangeStmt:
			fa.rangeStmt(ff, n)
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				t := fa.exprTaint(ff, r)
				if t.empty() {
					continue
				}
				next := flowSummary{
					retTaint:   sum.retTaint || t.real,
					retSrc:     sum.retSrc,
					retParams:  sum.retParams | t.params,
					sinkParams: sum.sinkParams,
				}
				if t.real && (next.retSrc == "" || t.src < next.retSrc) {
					next.retSrc = t.src
				}
				if next != *sum {
					*sum = next
					fa.changed = true
				}
			}
		case *ast.CallExpr:
			fa.sinkCall(ff, n)
		}
		return true
	})
}

// assign propagates RHS taint into LHS targets.
func (fa *flowAnalysis) assign(ff *flowFunc, as *ast.AssignStmt) {
	pkg := ff.inf.Pkg
	taints := make([]taint, len(as.Lhs))
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		t := fa.exprTaint(ff, as.Rhs[0])
		for i := range taints {
			taints[i] = t
		}
	} else {
		for i := range as.Lhs {
			if i < len(as.Rhs) {
				taints[i] = fa.exprTaint(ff, as.Rhs[i])
			}
		}
	}
	for i, lhs := range as.Lhs {
		fa.storeTo(ff, pkg, lhs, taints[i])
	}
}

// storeTo merges taint into an assignment target: locals, struct
// fields (real taint becomes module-global field taint), and element
// stores into slice-typed containers.
func (fa *flowAnalysis) storeTo(ff *flowFunc, pkg *Package, lhs ast.Expr, t taint) {
	if t.empty() {
		return
	}
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		fa.mergeLocal(ff, fa.objOf(pkg, lhs), lhs.Name, t)
	case *ast.SelectorExpr:
		if !t.real || ff.sorted[types.ExprString(lhs)] {
			return
		}
		if sel, ok := pkg.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				if old, ok := fa.fields[v]; !ok || t.src < old {
					fa.fields[v] = t.src
					fa.changed = true
				}
			}
		}
	case *ast.IndexExpr:
		fa.storeTo(ff, pkg, lhs.X, t)
	case *ast.StarExpr:
		fa.storeTo(ff, pkg, lhs.X, t)
	}
}

// rangeStmt handles both taint sources and ordered iteration:
// ranging a map marks pre-existing accumulators the body fills in
// iteration order; ranging a tainted slice taints the iteration
// variables and makes first-wins stores inside the body sinks.
func (fa *flowAnalysis) rangeStmt(ff *flowFunc, rs *ast.RangeStmt) {
	pkg := ff.inf.Pkg
	if pkg.isMapType(rs.X) {
		fa.mapRangeSources(ff, rs)
		return
	}
	t := fa.exprTaint(ff, rs.X)
	if t.empty() {
		return
	}
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			fa.mergeLocal(ff, fa.objOf(pkg, id), id.Name, t)
		}
	}
	// An ordered iteration over map-ordered data makes first-wins map
	// stores inside the body order-dependent regardless of the key
	// expression — the certByBase shape.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if f, ok := guardedMapStore(pkg, ifs, types.ExprString(rs.X)); ok {
			if t.real {
				// Reuse the detrange detector's position, with the
				// interprocedural story in the message.
				f.Analyzer = "detflow"
				f.Message = fmt.Sprintf(
					"first-wins store while iterating %s (%s): the winner depends on map iteration order; sort before iterating",
					types.ExprString(rs.X), t.src)
				fa.reportFinding(ff, f)
			}
			fa.noteSinkParams(ff, t)
		}
		return true
	})
}

// mapRangeSources marks accumulators: assignments inside a map-range
// body whose RHS mentions the iteration variables and whose target
// was declared before the range collect values in iteration order.
// Stores into map-typed targets stay exempt (map insertion order is
// invisible); everything else — slice appends, string concatenation,
// indexed slice writes — becomes ordered the moment the range is.
func (fa *flowAnalysis) mapRangeSources(ff *flowFunc, rs *ast.RangeStmt) {
	pkg := ff.inf.Pkg
	iterVars := map[types.Object]bool{}
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := fa.objOf(pkg, id); obj != nil {
				iterVars[obj] = true
			}
		}
	}
	src := "values collected ranging over " + types.ExprString(rs.X) + " in " + displayName(ff.inf.Fn)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		mentions := false
		for _, rhs := range as.Rhs {
			ast.Inspect(rhs, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && iterVars[fa.objOf(pkg, id)] {
					mentions = true
				}
				return !mentions
			})
		}
		if !mentions {
			return true
		}
		for _, lhs := range as.Lhs {
			target := ast.Unparen(lhs)
			if idx, ok := target.(*ast.IndexExpr); ok && pkg.isMapType(idx.X) {
				continue // map stores are order-independent
			}
			base := target
			for {
				if idx, ok := base.(*ast.IndexExpr); ok {
					base = ast.Unparen(idx.X)
					continue
				}
				break
			}
			id, ok := base.(*ast.Ident)
			if !ok {
				continue
			}
			obj := fa.objOf(pkg, id)
			if obj == nil || iterVars[obj] || obj.Pos() >= rs.Pos() {
				continue // per-iteration local, not an accumulator
			}
			fa.mergeLocal(ff, obj, id.Name, taint{real: true, src: src})
		}
		return true
	})
}

// sinkCall folds ordered-sink calls into findings (emit round, real
// taint, deterministic package) and into the summary's parameter sink
// set.
func (fa *flowAnalysis) sinkCall(ff *flowFunc, call *ast.CallExpr) {
	pkg := ff.inf.Pkg
	fn := pkg.calleeOf(call)
	if fn == nil {
		return
	}
	if isPkgFunc(fn, "fmt", "Fprint", "Fprintf", "Fprintln") {
		var t taint
		for _, arg := range call.Args[1:] { // args past the writer
			t = t.union(fa.exprTaint(ff, arg))
		}
		fa.sink(ff, call.Pos(), t, "fmt."+fn.Name())
		return
	}
	if named := recvNamed(fn); named != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			var t taint
			for _, arg := range call.Args {
				t = t.union(fa.exprTaint(ff, arg))
			}
			fa.sink(ff, call.Pos(), t, named.Obj().Name()+"."+fn.Name())
			return
		case "Add", "AddHash":
			obj := named.Obj()
			if obj.Name() == "MultisetHash" && obj.Pkg() != nil &&
				strings.HasSuffix(obj.Pkg().Path(), "internal/provenance") {
				var t taint
				for _, arg := range call.Args {
					t = t.union(fa.exprTaint(ff, arg))
				}
				fa.sink(ff, call.Pos(), t, "MultisetHash."+fn.Name())
				return
			}
		}
	}
	sum, ok := fa.sums[fn]
	if !ok || sum.sinkParams == 0 {
		return
	}
	for i, arg := range call.Args {
		if i >= 64 || sum.sinkParams&(1<<uint(i)) == 0 {
			continue
		}
		t := fa.exprTaint(ff, arg)
		if t.empty() {
			continue
		}
		if t.real {
			fa.reportPos(ff, call.Pos(),
				"passes map-iteration-ordered value (%s) to %s, which feeds an ordered sink; sort it before the call",
				t.src, displayName(fn))
		}
		fa.noteSinkParams(ff, t)
	}
}

// sink handles one direct ordered-sink call site.
func (fa *flowAnalysis) sink(ff *flowFunc, pos token.Pos, t taint, sinkName string) {
	if t.empty() {
		return
	}
	if t.real {
		fa.reportPos(ff, pos,
			"map-iteration-ordered value (%s) reaches %s; sort it before the sink (the cross-function certByBase bug class)",
			t.src, sinkName)
	}
	fa.noteSinkParams(ff, t)
}

// noteSinkParams records that the given parameters reach a sink,
// growing this function's summary.
func (fa *flowAnalysis) noteSinkParams(ff *flowFunc, t taint) {
	sum := fa.sums[ff.inf.Fn]
	if t.params&^sum.sinkParams != 0 {
		sum.sinkParams |= t.params
		fa.changed = true
	}
}

// reportPos buffers one finding during the emit round; findings are
// only emitted for sinks inside the deterministic packages, so taint
// may flow through any package but only matters where determinism is
// promised.
func (fa *flowAnalysis) reportPos(ff *flowFunc, pos token.Pos, format string, args ...any) {
	if !fa.emit || !inClass(ff.inf.Pkg.Path, fa.cfg.Deterministic) {
		return
	}
	fa.findings = append(fa.findings, ff.inf.Pkg.finding("detflow", pos, format, args...))
}

// reportFinding buffers a prebuilt finding under the same gate.
func (fa *flowAnalysis) reportFinding(ff *flowFunc, f Finding) {
	if !fa.emit || !inClass(ff.inf.Pkg.Path, fa.cfg.Deterministic) {
		return
	}
	fa.findings = append(fa.findings, f)
}
