package mal

import (
	"fmt"

	"selforg/internal/bat"
	"selforg/internal/bpm"
)

// DefaultRegistry builds the builtin operator set used by the paper's
// plans: the sql binding/result operators, the algebra kernel, bat
// reordering, calc casts, aggregates, io.print and the bpm segment module
// of §3.1.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	registerSQL(r)
	registerAlgebra(r)
	registerBat(r)
	registerCalc(r)
	registerAggr(r)
	registerIO(r)
	registerBPM(r)
	return r
}

// --- argument helpers ---

func argBAT(args []any, i int) (*bat.BAT, error) {
	b, ok := args[i].(*bat.BAT)
	if !ok {
		return nil, fmt.Errorf("argument %d: expected bat, got %T", i+1, args[i])
	}
	return b, nil
}

func argSegBAT(args []any, i int) (*bpm.SegmentedBAT, error) {
	sb, ok := args[i].(*bpm.SegmentedBAT)
	if !ok {
		return nil, fmt.Errorf("argument %d: expected segmented bat, got %T", i+1, args[i])
	}
	return sb, nil
}

func argStr(args []any, i int) (string, error) {
	s, ok := args[i].(string)
	if !ok {
		return "", fmt.Errorf("argument %d: expected string, got %T", i+1, args[i])
	}
	return s, nil
}

func argInt(args []any, i int) (int64, error) {
	switch v := args[i].(type) {
	case int64:
		return v, nil
	case bat.Value:
		if v.K == bat.KLng {
			return v.AsLng(), nil
		}
	}
	return 0, fmt.Errorf("argument %d: expected integer, got %T", i+1, args[i])
}

func argFlt(args []any, i int) (float64, error) {
	switch v := args[i].(type) {
	case float64:
		return v, nil
	case int64:
		return float64(v), nil
	case bat.Value:
		switch v.K {
		case bat.KDbl:
			return v.AsDbl(), nil
		case bat.KLng:
			return float64(v.AsLng()), nil
		}
	}
	return 0, fmt.Errorf("argument %d: expected number, got %T", i+1, args[i])
}

func argBool(args []any, i int) (bool, error) {
	b, ok := args[i].(bool)
	if !ok {
		return false, fmt.Errorf("argument %d: expected bool, got %T", i+1, args[i])
	}
	return b, nil
}

func argKind(args []any, i int) (bat.Kind, error) {
	switch v := args[i].(type) {
	case TypeName:
		return bat.KindFromName(string(v))
	case string:
		return bat.KindFromName(v)
	}
	return 0, fmt.Errorf("argument %d: expected type name, got %T", i+1, args[i])
}

// coerceBound converts a numeric argument to a bat.Value of the tail kind.
func coerceBound(b *bat.BAT, arg any, pos int) (bat.Value, error) {
	switch b.TailKind() {
	case bat.KDbl:
		f, err := argFlt([]any{arg}, 0)
		if err != nil {
			return bat.Value{}, fmt.Errorf("bound %d: %w", pos, err)
		}
		return bat.Dbl(f), nil
	case bat.KLng:
		switch v := arg.(type) {
		case int64:
			return bat.Lng(v), nil
		case float64:
			return bat.Lng(int64(v)), nil
		case bat.Value:
			if v.K == bat.KLng {
				return v, nil
			}
		}
		return bat.Value{}, fmt.Errorf("bound %d: cannot coerce %T to lng", pos, arg)
	case bat.KStr:
		s, err := argStr([]any{arg}, 0)
		if err != nil {
			return bat.Value{}, fmt.Errorf("bound %d: %w", pos, err)
		}
		return bat.Str(s), nil
	case bat.KOid:
		switch v := arg.(type) {
		case bat.Value:
			if v.K == bat.KOid {
				return v, nil
			}
		case int64:
			return bat.Oid(uint64(v)), nil
		}
		return bat.Value{}, fmt.Errorf("bound %d: cannot coerce %T to oid", pos, arg)
	default:
		return bat.Value{}, fmt.Errorf("bound %d: unsupported tail %v", pos, b.TailKind())
	}
}

// --- sql module ---

func registerSQL(r *Registry) {
	r.Register("sql", "bind", func(ctx *Context, args []any) (any, error) {
		if len(args) != 4 {
			return nil, fmt.Errorf("sql.bind wants 4 arguments")
		}
		schema, err := argStr(args, 0)
		if err != nil {
			return nil, err
		}
		table, err := argStr(args, 1)
		if err != nil {
			return nil, err
		}
		column, err := argStr(args, 2)
		if err != nil {
			return nil, err
		}
		slot, err := argInt(args, 3)
		if err != nil {
			return nil, err
		}
		if ctx.Catalog == nil {
			return nil, fmt.Errorf("no catalog attached")
		}
		return ctx.Catalog.Bind(schema, table, column, int(slot))
	})
	r.Register("sql", "bind_dbat", func(ctx *Context, args []any) (any, error) {
		if len(args) != 3 {
			return nil, fmt.Errorf("sql.bind_dbat wants 3 arguments")
		}
		schema, err := argStr(args, 0)
		if err != nil {
			return nil, err
		}
		table, err := argStr(args, 1)
		if err != nil {
			return nil, err
		}
		slot, err := argInt(args, 2)
		if err != nil {
			return nil, err
		}
		if ctx.Catalog == nil {
			return nil, fmt.Errorf("no catalog attached")
		}
		return ctx.Catalog.BindDBat(schema, table, int(slot))
	})
	r.Register("sql", "resultSet", func(ctx *Context, args []any) (any, error) {
		// resultSet(nCols, nDims, firstColumnBat) — only the shape matters.
		return &ResultSet{}, nil
	})
	r.Register("sql", "rsColumn", func(ctx *Context, args []any) (any, error) {
		if len(args) != 7 {
			return nil, fmt.Errorf("sql.rsColumn wants 7 arguments")
		}
		rs, ok := args[0].(*ResultSet)
		if !ok {
			return nil, fmt.Errorf("argument 1: expected result set, got %T", args[0])
		}
		table, err := argStr(args, 1)
		if err != nil {
			return nil, err
		}
		name, err := argStr(args, 2)
		if err != nil {
			return nil, err
		}
		typ, err := argStr(args, 3)
		if err != nil {
			return nil, err
		}
		b, err := argBAT(args, 6)
		if err != nil {
			return nil, err
		}
		rs.cols = append(rs.cols, rsColumn{table: table, name: name, typ: typ, b: b})
		return nil, nil
	})
	r.Register("sql", "exportResult", func(ctx *Context, args []any) (any, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("sql.exportResult wants a result set")
		}
		rs, ok := args[0].(*ResultSet)
		if !ok {
			return nil, fmt.Errorf("argument 1: expected result set, got %T", args[0])
		}
		rs.Render(ctx.Out)
		ctx.Results = append(ctx.Results, rs)
		return nil, nil
	})
}

// --- algebra module ---

func registerAlgebra(r *Registry) {
	sel := func(ctx *Context, args []any) (any, error) {
		if len(args) != 3 && len(args) != 5 {
			return nil, fmt.Errorf("select wants (b, lo, hi) or (b, lo, hi, li, hi)")
		}
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		lo, err := coerceBound(b, args[1], 1)
		if err != nil {
			return nil, err
		}
		hi, err := coerceBound(b, args[2], 2)
		if err != nil {
			return nil, err
		}
		loIncl, hiIncl := true, true
		if len(args) == 5 {
			if loIncl, err = argBool(args, 3); err != nil {
				return nil, err
			}
			if hiIncl, err = argBool(args, 4); err != nil {
				return nil, err
			}
		}
		return bat.RangeSelect(b, lo, hi, loIncl, hiIncl), nil
	}
	r.Register("algebra", "select", sel)
	r.Register("algebra", "uselect", sel)

	binop := func(name string, f func(a, b *bat.BAT) *bat.BAT) Builtin {
		return func(ctx *Context, args []any) (any, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("%s wants 2 arguments", name)
			}
			a, err := argBAT(args, 0)
			if err != nil {
				return nil, err
			}
			b, err := argBAT(args, 1)
			if err != nil {
				return nil, err
			}
			return f(a, b), nil
		}
	}
	r.Register("algebra", "kunion", binop("kunion", bat.KUnion))
	r.Register("algebra", "kdifference", binop("kdifference", bat.KDifference))
	r.Register("algebra", "kintersect", binop("kintersect", bat.KIntersect))
	r.Register("algebra", "join", binop("join", bat.Join))

	r.Register("algebra", "markT", func(ctx *Context, args []any) (any, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("markT wants 2 arguments")
		}
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		base, ok := args[1].(bat.Value)
		if !ok || base.K != bat.KOid {
			return nil, fmt.Errorf("argument 2: expected oid, got %T", args[1])
		}
		return bat.MarkT(b, base.AsOid()), nil
	})
	r.Register("algebra", "sortTail", func(ctx *Context, args []any) (any, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		return bat.SortTail(b), nil
	})
	r.Register("algebra", "slice", func(ctx *Context, args []any) (any, error) {
		if len(args) != 3 {
			return nil, fmt.Errorf("slice wants 3 arguments")
		}
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		lo, err := argInt(args, 1)
		if err != nil {
			return nil, err
		}
		hi, err := argInt(args, 2)
		if err != nil {
			return nil, err
		}
		return b.Slice(int(lo), int(hi)), nil
	})
}

// --- bat module ---

func registerBat(r *Registry) {
	r.Register("bat", "reverse", func(ctx *Context, args []any) (any, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		return bat.Reverse(b), nil
	})
	r.Register("bat", "mirror", func(ctx *Context, args []any) (any, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		return bat.Mirror(b), nil
	})
	r.Register("bat", "new", func(ctx *Context, args []any) (any, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("bat.new wants 2 type arguments")
		}
		hk, err := argKind(args, 0)
		if err != nil {
			return nil, err
		}
		tk, err := argKind(args, 1)
		if err != nil {
			return nil, err
		}
		return bat.Empty(hk, tk), nil
	})
}

// --- calc module ---

func registerCalc(r *Registry) {
	r.Register("calc", "oid", func(ctx *Context, args []any) (any, error) {
		switch v := args[0].(type) {
		case bat.Value:
			if v.K == bat.KOid {
				return v, nil
			}
		case int64:
			return bat.Oid(uint64(v)), nil
		}
		return nil, fmt.Errorf("cannot cast %T to oid", args[0])
	})
	r.Register("calc", "lng", func(ctx *Context, args []any) (any, error) {
		v, err := argInt(args, 0)
		if err != nil {
			f, ferr := argFlt(args, 0)
			if ferr != nil {
				return nil, err
			}
			return int64(f), nil
		}
		return v, nil
	})
	r.Register("calc", "dbl", func(ctx *Context, args []any) (any, error) {
		return argFlt(args, 0)
	})
	r.Register("calc", "str", func(ctx *Context, args []any) (any, error) {
		return fmt.Sprint(args[0]), nil
	})
	r.Register("calc", "add", func(ctx *Context, args []any) (any, error) {
		a, err := argFlt(args, 0)
		if err != nil {
			return nil, err
		}
		b, err := argFlt(args, 1)
		if err != nil {
			return nil, err
		}
		return a + b, nil
	})
}

// --- aggr module ---

func registerAggr(r *Registry) {
	one := func(f func(b *bat.BAT) any) Builtin {
		return func(_ *Context, args []any) (any, error) {
			b, err := argBAT(args, 0)
			if err != nil {
				return nil, err
			}
			return f(b), nil
		}
	}
	r.Register("aggr", "count", one(func(b *bat.BAT) any { return bat.Count(b) }))
	r.Register("aggr", "sum", one(func(b *bat.BAT) any { return bat.Sum(b) }))
	r.Register("aggr", "min", one(func(b *bat.BAT) any { return bat.Min(b) }))
	r.Register("aggr", "max", one(func(b *bat.BAT) any { return bat.Max(b) }))
}

// --- io module ---

func registerIO(r *Registry) {
	r.Register("io", "print", func(ctx *Context, args []any) (any, error) {
		for _, a := range args {
			fmt.Fprintln(ctx.Out, a)
		}
		return nil, nil
	})
}

// --- bpm module (§3.1's segment-aware operators) ---

func registerBPM(r *Registry) {
	r.Register("bpm", "take", func(ctx *Context, args []any) (any, error) {
		name, err := argStr(args, 0)
		if err != nil {
			return nil, err
		}
		if ctx.Store == nil {
			return nil, fmt.Errorf("no segment store attached")
		}
		return ctx.Store.Take(name)
	})
	r.Register("bpm", "new", func(ctx *Context, args []any) (any, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("bpm.new wants 2 type arguments")
		}
		hk, err := argKind(args, 0)
		if err != nil {
			return nil, err
		}
		tk, err := argKind(args, 1)
		if err != nil {
			return nil, err
		}
		return bat.Empty(hk, tk), nil
	})
	r.Register("bpm", "newIterator", func(ctx *Context, args []any) (any, error) {
		sb, lo, hi, err := segIterArgs(args)
		if err != nil {
			return nil, err
		}
		loI, hiI := sb.Overlapping(lo, hi)
		it := &segIter{lo: loI, hi: hiI, next: loI}
		ctx.iters[iterKey{sb, lo, hi}] = it
		return nextSegment(sb, it), nil
	})
	r.Register("bpm", "hasMoreElements", func(ctx *Context, args []any) (any, error) {
		sb, lo, hi, err := segIterArgs(args)
		if err != nil {
			return nil, err
		}
		it, ok := ctx.iters[iterKey{sb, lo, hi}]
		if !ok {
			return nil, fmt.Errorf("hasMoreElements without newIterator")
		}
		return nextSegment(sb, it), nil
	})
	r.Register("bpm", "takeSegment", func(ctx *Context, args []any) (any, error) {
		sb, err := argSegBAT(args, 0)
		if err != nil {
			return nil, err
		}
		i, err := argInt(args, 1)
		if err != nil {
			return nil, err
		}
		if i < 0 || int(i) >= sb.SegmentCount() {
			return nil, fmt.Errorf("segment %d out of %d", i, sb.SegmentCount())
		}
		return sb.Segment(int(i)).B, nil
	})
	r.Register("bpm", "addSegment", func(ctx *Context, args []any) (any, error) {
		acc, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		piece, err := argBAT(args, 1)
		if err != nil {
			return nil, err
		}
		for i := 0; i < piece.Len(); i++ {
			h, t := piece.Row(i)
			acc.AppendRow(h, t)
		}
		return acc, nil
	})
	r.Register("bpm", "adapt", func(ctx *Context, args []any) (any, error) {
		sb, lo, hi, err := segIterArgs(args)
		if err != nil {
			return nil, err
		}
		rewritten := sb.Adapt(lo, hi, ctx.AdaptModel)
		ctx.AdaptedBytes += rewritten
		return rewritten, nil
	})
	r.Register("bpm", "segments", func(ctx *Context, args []any) (any, error) {
		sb, err := argSegBAT(args, 0)
		if err != nil {
			return nil, err
		}
		return int64(sb.SegmentCount()), nil
	})
}

// segIterArgs unpacks (segmentedBAT, lo, hi).
func segIterArgs(args []any) (*bpm.SegmentedBAT, float64, float64, error) {
	if len(args) != 3 {
		return nil, 0, 0, fmt.Errorf("want (segbat, lo, hi)")
	}
	sb, err := argSegBAT(args, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	lo, err := argFlt(args, 1)
	if err != nil {
		return nil, 0, 0, err
	}
	hi, err := argFlt(args, 2)
	if err != nil {
		return nil, 0, 0, err
	}
	return sb, lo, hi, nil
}

// nextSegment advances the iterator, returning the next overlapping
// segment's BAT or nil when exhausted (which ends the barrier block).
func nextSegment(sb *bpm.SegmentedBAT, it *segIter) any {
	if it.next >= it.hi {
		return nil
	}
	b := sb.Segment(it.next).B
	it.next++
	return b
}
