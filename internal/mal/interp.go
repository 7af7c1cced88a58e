package mal

import (
	"fmt"
	"io"
	"strings"

	"selforg/internal/bat"
	"selforg/internal/bpm"
	"selforg/internal/model"
)

// Builtin is one MAL operator implementation. Arguments arrive resolved
// (variables substituted); the return value is bound to the instruction's
// target.
type Builtin func(ctx *Context, args []any) (any, error)

// Registry maps "module.func" names to builtins.
type Registry struct {
	fns map[string]Builtin
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fns: make(map[string]Builtin)} }

// Register installs a builtin under module.fn.
func (r *Registry) Register(module, fn string, b Builtin) {
	r.fns[module+"."+fn] = b
}

// Lookup finds a builtin.
func (r *Registry) Lookup(module, fn string) (Builtin, bool) {
	b, ok := r.fns[module+"."+fn]
	return b, ok
}

// Names lists registered builtins (diagnostics).
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.fns))
	for n := range r.fns {
		out = append(out, n)
	}
	return out
}

// Context is one execution environment: variable bindings, the catalog,
// the segmented-column store and the collected result sets.
type Context struct {
	env      map[string]any
	Registry *Registry
	Catalog  Catalog
	Store    *bpm.Store
	// AdaptModel drives bpm.adapt, the reorganizing module call the
	// segment optimizer injects after selections (§3.3).
	AdaptModel model.Model
	Out        io.Writer
	// Results collects the result sets exported by sql.exportResult.
	Results []*ResultSet
	// AdaptedBytes totals the bytes rewritten by bpm.adapt calls.
	AdaptedBytes int64

	iters map[iterKey]*segIter
}

// iterKey identifies a bpm segment iterator by column and predicate.
type iterKey struct {
	sb     *bpm.SegmentedBAT
	lo, hi float64
}

// segIter walks the segments of a column overlapping a predicate.
type segIter struct {
	lo, hi int // index window
	next   int
}

// Interp executes MAL programs against a registry.
type Interp struct {
	Registry *Registry
	Catalog  Catalog
	Store    *bpm.Store
	// AdaptModel defaults to APM with MonetDB-ish page bounds if nil.
	AdaptModel model.Model
	Out        io.Writer
}

// NewInterp builds an interpreter with the default builtin registry.
func NewInterp(cat Catalog, store *bpm.Store) *Interp {
	return &Interp{
		Registry: DefaultRegistry(),
		Catalog:  cat,
		Store:    store,
		Out:      io.Discard,
	}
}

// Run executes the program, binding args to the function parameters in
// order, and returns the final context.
func (in *Interp) Run(p *Program, args ...any) (*Context, error) {
	if len(args) != len(p.Params) {
		return nil, fmt.Errorf("mal: program %s wants %d args, got %d", p.Name, len(p.Params), len(args))
	}
	ctx := &Context{
		env:        make(map[string]any),
		Registry:   in.Registry,
		Catalog:    in.Catalog,
		Store:      in.Store,
		AdaptModel: in.AdaptModel,
		Out:        in.Out,
		iters:      make(map[iterKey]*segIter),
	}
	if ctx.AdaptModel == nil {
		ctx.AdaptModel = model.NewAPM(1<<13, 1<<15)
	}
	if ctx.Out == nil {
		ctx.Out = io.Discard
	}
	for i, prm := range p.Params {
		ctx.env[prm.Name] = args[i]
	}

	// Match barrier/redo/exit blocks by guard variable.
	exitOf := make(map[int]int)   // barrier index -> exit index
	redoBack := make(map[int]int) // redo index -> barrier index
	var stack []int
	for i := range p.Instrs {
		switch p.Instrs[i].Kind {
		case OpBarrier:
			stack = append(stack, i)
		case OpRedo:
			if len(stack) == 0 {
				return nil, fmt.Errorf("mal: line %d: redo outside block", p.Instrs[i].Line)
			}
			redoBack[i] = stack[len(stack)-1]
		case OpExit:
			if len(stack) == 0 {
				return nil, fmt.Errorf("mal: line %d: exit outside block", p.Instrs[i].Line)
			}
			exitOf[stack[len(stack)-1]] = i
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("mal: unclosed barrier block")
	}

	const maxSteps = 10_000_000 // guard against runaway redo loops
	steps := 0
	pc := 0
	for pc < len(p.Instrs) {
		if steps++; steps > maxSteps {
			return nil, fmt.Errorf("mal: execution exceeded %d steps", maxSteps)
		}
		instr := &p.Instrs[pc]
		switch instr.Kind {
		case OpAssign, OpCall:
			v, err := ctx.eval(instr)
			if err != nil {
				return nil, err
			}
			if instr.Target != "" {
				ctx.env[instr.Target] = v
			}
			pc++
		case OpBarrier:
			v, err := ctx.eval(instr)
			if err != nil {
				return nil, err
			}
			ctx.env[instr.Target] = v
			if falsy(v) {
				pc = exitOf[pc] + 1
			} else {
				pc++
			}
		case OpRedo:
			v, err := ctx.eval(instr)
			if err != nil {
				return nil, err
			}
			ctx.env[instr.Target] = v
			if falsy(v) {
				pc++
			} else {
				pc = redoBack[pc] + 1
			}
		case OpExit:
			pc++
		default:
			return nil, fmt.Errorf("mal: line %d: unknown instruction kind", instr.Line)
		}
	}
	return ctx, nil
}

// Get returns a variable binding from the finished context.
func (ctx *Context) Get(name string) (any, bool) {
	v, ok := ctx.env[name]
	return v, ok
}

// eval evaluates one instruction's expression.
func (ctx *Context) eval(instr *Instr) (any, error) {
	e := instr.Expr
	if e == nil {
		return nil, fmt.Errorf("mal: line %d: missing expression", instr.Line)
	}
	if !e.IsCall() {
		return ctx.resolve(*e.Atom, instr.Line)
	}
	fn, ok := ctx.Registry.Lookup(e.Module, e.Func)
	if !ok {
		return nil, fmt.Errorf("mal: line %d: unknown operator %s.%s", instr.Line, e.Module, e.Func)
	}
	args := make([]any, len(e.Args))
	for i, a := range e.Args {
		v, err := ctx.resolve(a, instr.Line)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	v, err := fn(ctx, args)
	if err != nil {
		return nil, fmt.Errorf("mal: line %d: %s.%s: %w", instr.Line, e.Module, e.Func, err)
	}
	return v, nil
}

// resolve turns an argument into a runtime value.
func (ctx *Context) resolve(a Arg, line int) (any, error) {
	if a.IsVar {
		v, ok := ctx.env[a.Name]
		if !ok {
			return nil, fmt.Errorf("mal: line %d: undefined variable %s", line, a.Name)
		}
		return v, nil
	}
	switch a.Lit.Kind {
	case LInt:
		return a.Lit.I, nil
	case LFlt:
		return a.Lit.F, nil
	case LStr:
		return a.Lit.S, nil
	case LBool:
		return a.Lit.B, nil
	case LOid:
		return bat.Oid(uint64(a.Lit.I)), nil
	case LType:
		return TypeName(a.Lit.S), nil
	case LNil:
		return nil, nil
	default:
		return nil, fmt.Errorf("mal: line %d: bad literal", line)
	}
}

// TypeName is the runtime value of a type-literal argument (:oid).
type TypeName string

// falsy implements the barrier truth test: nil and false leave the block.
func falsy(v any) bool {
	if v == nil {
		return true
	}
	b, ok := v.(bool)
	return ok && !b
}

// ResultSet is the structure built by sql.resultSet/rsColumn and rendered
// by sql.exportResult.
type ResultSet struct {
	cols []rsColumn
}

type rsColumn struct {
	table, name, typ string
	b                *bat.BAT
}

// Render writes the result set in MonetDB-ish tabular form (up to 32 data
// rows, then a count).
func (rs *ResultSet) Render(w io.Writer) {
	if len(rs.cols) == 0 {
		fmt.Fprintln(w, "(empty result set)")
		return
	}
	headers := make([]string, len(rs.cols))
	for i, c := range rs.cols {
		headers[i] = fmt.Sprintf("%s.%s:%s", c.table, c.name, c.typ)
	}
	fmt.Fprintf(w, "%% %s\n", strings.Join(headers, ",\t"))
	n := rs.cols[0].b.Len()
	const maxRows = 32
	shown := n
	if shown > maxRows {
		shown = maxRows
	}
	for r := 0; r < shown; r++ {
		cells := make([]string, len(rs.cols))
		for i, c := range rs.cols {
			cells[i] = c.b.Tail.Get(r).String()
		}
		fmt.Fprintf(w, "[ %s ]\n", strings.Join(cells, ",\t"))
	}
	fmt.Fprintf(w, "# %d rows\n", n)
}

// Column returns the i-th column's BAT (tests compare plan outputs).
func (rs *ResultSet) Column(i int) *bat.BAT { return rs.cols[i].b }

// ColumnName returns the i-th column's name (result extraction).
func (rs *ResultSet) ColumnName(i int) string { return rs.cols[i].name }

// NumRows returns the row count of the first column.
func (rs *ResultSet) NumRows() int {
	if len(rs.cols) == 0 {
		return 0
	}
	return rs.cols[0].b.Len()
}

// NumCols returns the column count.
func (rs *ResultSet) NumCols() int { return len(rs.cols) }
