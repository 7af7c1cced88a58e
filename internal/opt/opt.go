// Package opt implements the tactical optimizer layer of §2/§3.1: a
// MAL-to-MAL transformation pipeline. Self-organization lives here — "the
// tactical optimization layer ... where global resource decisions are made
// and MAL programs can be transformed to cope with specific cases" — as
// the segment optimizer pass, which rewrites selections over segmented
// columns into segment-aware instruction sequences and injects the
// reorganizing-module call (§3.3).
package opt

import (
	"fmt"
	"strings"

	"selforg/internal/bpm"
	"selforg/internal/mal"
)

// Context provides the catalog and segment metadata passes may consult.
type Context struct {
	Catalog mal.Catalog
	Store   *bpm.Store
	// UnrollThreshold selects between the two replacement strategies of
	// §3.1: with at most this many relevant segments (and literal
	// predicate bounds) the rewrite unrolls one instruction per segment;
	// otherwise it emits the iterator form. Zero means always iterate.
	UnrollThreshold int
}

// Pass is one MAL-to-MAL transformation.
type Pass interface {
	Name() string
	// Apply rewrites the program in place, reporting whether it changed.
	Apply(p *mal.Program, ctx *Context) (bool, error)
}

// Optimizer runs a pass pipeline to fixpoint (bounded).
type Optimizer struct {
	Passes []Pass
}

// Default returns the standard pipeline: segment rewriting, then
// common-subexpression elimination, alias propagation and dead-code
// elimination.
func Default() *Optimizer {
	return &Optimizer{Passes: []Pass{
		&SegmentPass{},
		&CSEPass{},
		&AliasPass{},
		&DeadCodePass{},
	}}
}

// Optimize applies the pipeline repeatedly until no pass changes the
// program (at most maxRounds rounds).
func (o *Optimizer) Optimize(p *mal.Program, ctx *Context) error {
	const maxRounds = 10
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, pass := range o.Passes {
			c, err := pass.Apply(p, ctx)
			if err != nil {
				return fmt.Errorf("opt: pass %s: %w", pass.Name(), err)
			}
			changed = changed || c
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// AliasPass propagates single-assignment aliases (`X := Y;`) into later
// argument positions and leaves the (now dead) alias for DeadCodePass.
type AliasPass struct{}

// Name implements Pass.
func (*AliasPass) Name() string { return "alias" }

// Apply implements Pass.
func (*AliasPass) Apply(p *mal.Program, _ *Context) (bool, error) {
	assignCount := make(map[string]int)
	for i := range p.Instrs {
		if t := p.Instrs[i].Target; t != "" {
			assignCount[t]++
		}
	}
	changed := false
	alias := make(map[string]string)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		// Substitute known aliases in arguments first.
		if in.Expr != nil {
			if in.Expr.IsCall() {
				for j := range in.Expr.Args {
					a := &in.Expr.Args[j]
					if a.IsVar {
						if to, ok := alias[a.Name]; ok {
							a.Name = to
							changed = true
						}
					}
				}
			} else if in.Expr.Atom.IsVar {
				if to, ok := alias[in.Expr.Atom.Name]; ok {
					in.Expr.Atom.Name = to
					changed = true
				}
			}
		}
		// Record new aliases: plain assignment of one variable to another,
		// both assigned exactly once (MAL is single-assignment by
		// convention; guard anyway).
		if in.Kind == mal.OpAssign && in.Expr != nil && !in.Expr.IsCall() &&
			in.Expr.Atom.IsVar &&
			assignCount[in.Target] == 1 && assignCount[in.Expr.Atom.Name] == 1 {
			alias[in.Target] = in.Expr.Atom.Name
		}
	}
	return changed, nil
}

// DeadCodePass removes pure assignments whose targets are never read —
// the tactical optimizer's cleanup after rewrites (§2 mentions plans of
// ~80 operations including resource management; dead binds vanish here).
type DeadCodePass struct{}

// Name implements Pass.
func (*DeadCodePass) Name() string { return "deadcode" }

// impure lists operators with side effects that must survive even when
// their results are unused.
var impure = map[string]bool{
	"sql.rsColumn":     true,
	"sql.exportResult": true,
	"sql.resultSet":    false, // pure allocation
	"io.print":         true,
	"bpm.addSegment":   true,
	"bpm.adapt":        true,
}

func instrPure(in *mal.Instr) bool {
	if in.Kind != mal.OpAssign {
		return false // calls, barriers, redos and exits always stay
	}
	if in.Expr == nil {
		return false
	}
	if !in.Expr.IsCall() {
		return true // literal or alias
	}
	name := in.Expr.Module + "." + in.Expr.Func
	if bad, listed := impure[name]; listed {
		return !bad
	}
	switch in.Expr.Module {
	case "algebra", "bat", "calc", "aggr", "sql":
		return true
	default:
		return false // unknown modules are conservatively kept
	}
}

// Apply implements Pass.
func (*DeadCodePass) Apply(p *mal.Program, _ *Context) (bool, error) {
	used := make(map[string]bool)
	for i := range p.Instrs {
		for _, v := range p.Instrs[i].Expr.Vars() {
			used[v] = true
		}
		// Guard variables of blocks are control flow: keep them.
		switch p.Instrs[i].Kind {
		case mal.OpBarrier, mal.OpRedo, mal.OpExit:
			used[p.Instrs[i].Target] = true
		}
	}
	out := p.Instrs[:0]
	changed := false
	for i := range p.Instrs {
		in := p.Instrs[i]
		if instrPure(&in) && !used[in.Target] {
			changed = true
			continue
		}
		out = append(out, in)
	}
	p.Instrs = out
	return changed, nil
}

// SegmentPass is the segment optimizer of §3.1: it detects selections over
// columns with a value-based segmented organization and rewrites them into
// segment-aware sequences — the iterator form for many segments, the
// unrolled form for few — and injects the §3.3 reorganizing call
// (bpm.adapt) after the selection.
type SegmentPass struct {
	fresh int
}

// Name implements Pass.
func (*SegmentPass) Name() string { return "segments" }

// Apply implements Pass.
func (s *SegmentPass) Apply(p *mal.Program, ctx *Context) (bool, error) {
	if ctx == nil || ctx.Catalog == nil {
		return false, nil
	}
	// Map variables holding segmented base-column binds to store names.
	segBind := make(map[string]string)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Kind != mal.OpAssign || in.Expr == nil || !in.Expr.IsCall() {
			continue
		}
		e := in.Expr
		if e.Module == "sql" && e.Func == "bind" && len(e.Args) == 4 &&
			!e.Args[0].IsVar && !e.Args[1].IsVar && !e.Args[2].IsVar && !e.Args[3].IsVar &&
			e.Args[3].Lit.Kind == mal.LInt && e.Args[3].Lit.I == 0 {
			name := ctx.Catalog.SegmentedName(e.Args[0].Lit.S, e.Args[1].Lit.S, e.Args[2].Lit.S)
			if name != "" {
				segBind[in.Target] = name
			}
		}
	}
	if len(segBind) == 0 {
		return false, nil
	}
	var out []mal.Instr
	changed := false
	for i := range p.Instrs {
		in := p.Instrs[i]
		if name, ok := s.selectOverSegmented(&in, segBind); ok {
			seq, err := s.rewriteSelect(&in, name, ctx)
			if err != nil {
				return false, err
			}
			out = append(out, seq...)
			changed = true
			continue
		}
		out = append(out, in)
	}
	p.Instrs = out
	return changed, nil
}

// selectOverSegmented matches `Y := algebra.select/uselect(X, ...)` where
// X binds a segmented column, returning the store name.
func (s *SegmentPass) selectOverSegmented(in *mal.Instr, segBind map[string]string) (string, bool) {
	if in.Kind != mal.OpAssign || in.Expr == nil || !in.Expr.IsCall() {
		return "", false
	}
	e := in.Expr
	if e.Module != "algebra" || (e.Func != "select" && e.Func != "uselect") {
		return "", false
	}
	if len(e.Args) != 3 && len(e.Args) != 5 {
		return "", false
	}
	if !e.Args[0].IsVar {
		return "", false
	}
	name, ok := segBind[e.Args[0].Name]
	return name, ok
}

// rewriteSelect emits the replacement sequence for one selection.
func (s *SegmentPass) rewriteSelect(in *mal.Instr, storeName string, ctx *Context) ([]mal.Instr, error) {
	s.fresh++
	id := s.fresh
	e := in.Expr
	lo, hi := e.Args[1], e.Args[2]
	flags := e.Args[3:]

	colVar := fmt.Sprintf("Yc%d", id)
	resVar := fmt.Sprintf("Yr%d", id)

	seq := []mal.Instr{
		assign(colVar, call("bpm", "take", strArg(storeName))),
		assign(resVar, call("bpm", "new", typeArg("oid"), typeArg("dbl"))),
	}

	// The §3.1 strategy choice: unroll when the predicate bounds are
	// literals and the meta-index shows few relevant segments.
	if idxs, ok := s.unrollable(storeName, lo, hi, ctx); ok {
		for _, segIdx := range idxs {
			segVar := fmt.Sprintf("Ts%d_%d", id, segIdx)
			selVar := fmt.Sprintf("Tu%d_%d", id, segIdx)
			selArgs := append([]mal.Arg{varArg(segVar), lo, hi}, flags...)
			seq = append(seq,
				assign(segVar, call("bpm", "takeSegment", varArg(colVar), intArg(int64(segIdx)))),
				assign(selVar, callArgs("algebra", e.Func, selArgs)),
				bareCall(call("bpm", "addSegment", varArg(resVar), varArg(selVar))),
			)
		}
	} else {
		iterVar := fmt.Sprintf("Si%d", id)
		pieceVar := fmt.Sprintf("Tp%d", id)
		selArgs := append([]mal.Arg{varArg(iterVar), lo, hi}, flags...)
		seq = append(seq,
			instr(mal.OpBarrier, iterVar, call("bpm", "newIterator", varArg(colVar), lo, hi)),
			assign(pieceVar, callArgs("algebra", e.Func, selArgs)),
			bareCall(call("bpm", "addSegment", varArg(resVar), varArg(pieceVar))),
			instr(mal.OpRedo, iterVar, call("bpm", "hasMoreElements", varArg(colVar), lo, hi)),
			mal.Instr{Kind: mal.OpExit, Target: iterVar},
		)
	}

	// §3.3: inject the reorganizing-module call after the selection, then
	// alias the original target to the collected result.
	seq = append(seq,
		bareCall(call("bpm", "adapt", varArg(colVar), lo, hi)),
		mal.Instr{Kind: mal.OpAssign, Target: in.Target, Type: in.Type,
			Expr: &mal.Expr{Atom: &mal.Arg{IsVar: true, Name: resVar}}},
	)
	return seq, nil
}

// unrollable decides the unrolled strategy and returns the overlapping
// segment indices.
func (s *SegmentPass) unrollable(storeName string, lo, hi mal.Arg, ctx *Context) ([]int, bool) {
	if ctx.Store == nil || ctx.UnrollThreshold <= 0 {
		return nil, false
	}
	loF, ok1 := litFloat(lo)
	hiF, ok2 := litFloat(hi)
	if !ok1 || !ok2 {
		return nil, false
	}
	sb, err := ctx.Store.Take(storeName)
	if err != nil {
		return nil, false
	}
	loI, hiI := sb.Overlapping(loF, hiF)
	if hiI-loI > ctx.UnrollThreshold {
		return nil, false
	}
	idxs := make([]int, 0, hiI-loI)
	for i := loI; i < hiI; i++ {
		idxs = append(idxs, i)
	}
	return idxs, true
}

func litFloat(a mal.Arg) (float64, bool) {
	if a.IsVar {
		return 0, false
	}
	switch a.Lit.Kind {
	case mal.LFlt:
		return a.Lit.F, true
	case mal.LInt:
		return float64(a.Lit.I), true
	default:
		return 0, false
	}
}

// --- small AST constructors ---

func call(module, fn string, args ...mal.Arg) *mal.Expr {
	return &mal.Expr{Module: module, Func: fn, Args: args}
}

func callArgs(module, fn string, args []mal.Arg) *mal.Expr {
	return &mal.Expr{Module: module, Func: fn, Args: args}
}

func assign(target string, e *mal.Expr) mal.Instr {
	return mal.Instr{Kind: mal.OpAssign, Target: target, Expr: e}
}

func bareCall(e *mal.Expr) mal.Instr {
	return mal.Instr{Kind: mal.OpCall, Expr: e}
}

func instr(kind mal.OpKind, target string, e *mal.Expr) mal.Instr {
	return mal.Instr{Kind: kind, Target: target, Expr: e}
}

func varArg(name string) mal.Arg { return mal.Arg{IsVar: true, Name: name} }

func strArg(s string) mal.Arg {
	return mal.Arg{Lit: mal.Lit{Kind: mal.LStr, S: s}}
}

func intArg(i int64) mal.Arg {
	return mal.Arg{Lit: mal.Lit{Kind: mal.LInt, I: i}}
}

func typeArg(name string) mal.Arg {
	return mal.Arg{Lit: mal.Lit{Kind: mal.LType, S: name}}
}

// Describe renders a one-line summary of the optimizer pipeline.
func (o *Optimizer) Describe() string {
	names := make([]string, len(o.Passes))
	for i, p := range o.Passes {
		names[i] = p.Name()
	}
	return strings.Join(names, " -> ")
}
