// Expression compilation: Compile turns an Expr tree into fused,
// kind-specialized closures so the executor's scalar hot path (filter
// predicates, projection expressions) pays neither the per-row virtual
// Eval dispatch nor the per-row operator switch of the interpreter.
// Column references and literals are fused into their consuming operator's
// closure — the archetypal `col <op> literal` predicate runs as a single
// closure call per row with a direct row load inside.
//
// The compiled form is an exact semantic twin of the interpreter — the
// same null propagation, the same div-by-zero-to-NULL rule, the same
// Truth() coercions — pinned by the table-driven semantics tests, the
// golden compiled-vs-interpreted sweep, and FuzzCompiledEval. Arithmetic
// falls back to the interpreter's own evalArith and comparisons to
// data.Compare whenever a kind guard fails, so specialization can only
// ever change speed, not results. The only observable differences are
// deliberate and invisible on well-formed inputs: And/Or short-circuit
// their right operand and constant subtrees fold at compile time, both
// safe because expression evaluation is pure.
//
// A Compiled program is immutable after Compile returns: every closure
// captures only compile-time constants, so one program is shared race-free
// across partition workers. Per-row mutable state (the hoisted argument
// buffers of Func/UDF calls) lives in a Ctx, one per worker; programs
// without Func/UDF nodes run on a nil Ctx and allocate nothing.
package expr

import (
	"cloudviews/internal/data"
)

// Ctx is the per-worker mutable scratch of a compiled program: a flat
// argument arena into which Func/UDF closures evaluate their operands,
// replacing the interpreter's per-row `make([]data.Value, n)`. Each
// Func/UDF node owns a disjoint compile-time-assigned range, so nested
// calls never clobber each other. A Ctx must not be shared between
// goroutines; NewCtx is cheap enough to call once per partition.
type Ctx struct {
	args []data.Value
}

// evalFn is the compiled form of one expression: value semantics identical
// to Expr.Eval on the same row.
type evalFn func(ctx *Ctx, row data.Row) data.Value

// boolFn is the compiled predicate form: identical to Expr.Eval(row).Truth().
type boolFn func(ctx *Ctx, row data.Row) bool

// Compiled is an expression compiled to fused closures, with both a value
// entry point (projection columns) and a predicate entry point (filters,
// which skip boxing comparison results into data.Bool values entirely).
type Compiled struct {
	eval    evalFn
	pred    boolFn
	scratch int
}

// Compile compiles e against the input schema. The schema supplies static
// kind hints for int/float specializations; it may be nil (or stale), in
// which case the compiled program simply takes its general paths — hints
// are guarded by runtime kind checks and never change results.
func Compile(e Expr, schema data.Schema) *Compiled {
	c := &compiler{schema: schema}
	ef, _ := c.value(e)
	pf, _ := c.boolean(e)
	return &Compiled{eval: ef, pred: pf, scratch: c.scratch}
}

// NewCtx returns a fresh evaluation context for one worker. Programs with
// no Func/UDF scratch return nil — their closures never touch the context.
func (c *Compiled) NewCtx() *Ctx {
	if c.scratch == 0 {
		return nil
	}
	return &Ctx{args: make([]data.Value, c.scratch)}
}

// Eval evaluates the compiled expression against a row.
func (c *Compiled) Eval(ctx *Ctx, row data.Row) data.Value { return c.eval(ctx, row) }

// Truth evaluates the compiled predicate form: Expr.Eval(row).Truth().
func (c *Compiled) Truth(ctx *Ctx, row data.Row) bool { return c.pred(ctx, row) }

// SelectInto is the batch predicate entry point: it appends the index of
// every row satisfying the predicate to sel (a reusable selection buffer)
// and returns the extended buffer. Indexes are appended in row order, so
// the caller's gather preserves scan order exactly like the interpreter's
// append-if-true loop.
func (c *Compiled) SelectInto(ctx *Ctx, rows []data.Row, sel []int32) []int32 {
	pred := c.pred
	for j, r := range rows {
		if pred(ctx, r) {
			sel = append(sel, int32(j))
		}
	}
	return sel
}

// Projector is a compiled projection list: one fused evaluator per output
// column, with column-reference and constant columns special-cased to a
// direct copy (no closure call at all).
type Projector struct {
	cols    []colEval
	scratch int
}

// colEval modes: a compiled closure, a direct input-column copy, or a
// compile-time constant.
const (
	ceFn uint8 = iota
	ceCol
	ceConst
)

type colEval struct {
	mode uint8
	idx  int
	val  data.Value
	fn   evalFn
}

// CompileProject compiles a projection expression list against the input
// schema.
func CompileProject(exprs []Expr, schema data.Schema) *Projector {
	c := &compiler{schema: schema}
	cols := make([]colEval, len(exprs))
	for i, e := range exprs {
		if col, ok := e.(*Col); ok {
			cols[i] = colEval{mode: ceCol, idx: col.Index}
			continue
		}
		f, k := c.value(e)
		if k != nil {
			cols[i] = colEval{mode: ceConst, val: *k}
			continue
		}
		cols[i] = colEval{mode: ceFn, fn: f}
	}
	return &Projector{cols: cols, scratch: c.scratch}
}

// Width returns the number of output columns.
func (p *Projector) Width() int { return len(p.cols) }

// NewCtx returns a fresh evaluation context for one worker (nil when the
// projection has no Func/UDF scratch).
func (p *Projector) NewCtx() *Ctx {
	if p.scratch == 0 {
		return nil
	}
	return &Ctx{args: make([]data.Value, p.scratch)}
}

// EmitInto is the batch projection entry point: out[j] must already be a
// writable row of Width() values (carved from the caller's RowArena);
// EmitInto fills out[j] from part[j] for every j and returns the exact
// summed data.Value.ByteSize of everything written — the caller reports it
// as the operator's output byte count instead of re-walking the rows.
func (p *Projector) EmitInto(ctx *Ctx, part, out []data.Row) int64 {
	cols := p.cols
	var bytes int64
	for j, r := range part {
		nr := out[j]
		for k := range cols {
			ce := &cols[k]
			var v data.Value
			switch ce.mode {
			case ceCol:
				v = r[ce.idx]
			case ceConst:
				v = ce.val
			default:
				v = ce.fn(ctx, r)
			}
			nr[k] = v
			bytes += v.ByteSize()
		}
	}
	return bytes
}

// compiler carries compile state: the schema for kind hints and the running
// scratch-arena size for Func/UDF argument hoisting.
type compiler struct {
	schema  data.Schema
	scratch int
}

func constFn(v data.Value) evalFn {
	return func(*Ctx, data.Row) data.Value { return v }
}

func constBool(b bool) boolFn {
	return func(*Ctx, data.Row) bool { return b }
}

// colOf reports the column index when e is a plain column reference — the
// operand shape every binary specialization fuses into a direct row load.
func colOf(e Expr) (int, bool) {
	if c, ok := e.(*Col); ok {
		return c.Index, true
	}
	return -1, false
}

// value compiles the value form of e. The second result is non-nil when
// the expression is a compile-time constant (folded), pointing at the
// constant value.
func (c *compiler) value(e Expr) (evalFn, *data.Value) {
	switch t := e.(type) {
	case *Col:
		idx := t.Index
		return func(_ *Ctx, row data.Row) data.Value { return row[idx] }, nil
	case *Const:
		v := t.V
		return constFn(v), &v
	case *Param:
		// A Param is bound per recurring instance: constant for the life of
		// this compiled program.
		v := t.V
		return constFn(v), &v
	case *Not:
		pf, pc := c.boolean(t.E)
		if pc != nil {
			v := data.Bool(!*pc)
			return constFn(v), &v
		}
		return func(ctx *Ctx, row data.Row) data.Value { return data.Bool(!pf(ctx, row)) }, nil
	case *Bin:
		return c.bin(t)
	case *Func:
		return c.fn(t)
	case *UDF:
		return c.udf(t)
	default:
		// Unknown Expr implementations fall back to the interpreter:
		// compilation is an optimization, never a semantics gate.
		return func(_ *Ctx, row data.Row) data.Value { return e.Eval(row) }, nil
	}
}

func (c *compiler) bin(b *Bin) (evalFn, *data.Value) {
	switch b.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return c.arith(b)
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr:
		pf, pc := c.boolean(b)
		if pc != nil {
			v := data.Bool(*pc)
			return constFn(v), &v
		}
		return func(ctx *Ctx, row data.Row) data.Value { return data.Bool(pf(ctx, row)) }, nil
	default:
		// Unknown operator: the interpreter evaluates both operands and
		// yields NULL. Keep the operand evaluation (it is where a malformed
		// row would surface) and the NULL.
		lf, _ := c.value(b.L)
		rf, _ := c.value(b.R)
		return func(ctx *Ctx, row data.Row) data.Value {
			lf(ctx, row)
			rf(ctx, row)
			return data.Null()
		}, nil
	}
}

// arithIntFast computes an arithmetic op over two values already guarded
// KindInt, matching evalArith's integer branch exactly (div/mod by zero
// yield NULL). The op switch predicts perfectly — op is a closure
// constant — which beats an indirect call to a per-op function.
func arithIntFast(op Op, l, r int64) data.Value {
	switch op {
	case OpAdd:
		return data.Int(l + r)
	case OpSub:
		return data.Int(l - r)
	case OpMul:
		return data.Int(l * r)
	case OpDiv:
		if r == 0 {
			return data.Null()
		}
		return data.Int(l / r)
	default: // OpMod
		if r == 0 {
			return data.Null()
		}
		return data.Int(l % r)
	}
}

// arithFloatFast computes an arithmetic op over two float operands already
// converted by the caller, matching evalArith's float branch exactly
// (div by zero and any float mod yield NULL).
func arithFloatFast(op Op, l, r float64) data.Value {
	switch op {
	case OpAdd:
		return data.Float(l + r)
	case OpSub:
		return data.Float(l - r)
	case OpMul:
		return data.Float(l * r)
	case OpDiv:
		if r == 0 {
			return data.Null()
		}
		return data.Float(l / r)
	default: // OpMod
		return data.Null()
	}
}

// arith compiles the five arithmetic operators. All paths bottom out in
// the interpreter's own evalArith — the specializations only fuse operand
// loads (column refs, constants) into the closure and lead with a guarded
// fast path matched to the kinds the schema promises (both-int, or the
// mixed int/float shapes that take evalArith's float branch).
func (c *compiler) arith(b *Bin) (evalFn, *data.Value) {
	op := b.Op
	lf, lc := c.value(b.L)
	rf, rc := c.value(b.R)
	if lc != nil && rc != nil {
		v := evalArith(op, *lc, *rc)
		return constFn(v), &v
	}
	lk, rk := b.L.ResultKind(c.schema), b.R.ResultKind(c.schema)
	intHint := lk == data.KindInt && rk == data.KindInt
	// numHint: both operands numeric with at least one float — the shape
	// that takes evalArith's float branch when the kinds hold at runtime.
	numeric := func(k data.Kind) bool { return k == data.KindInt || k == data.KindFloat }
	numHint := numeric(lk) && numeric(rk) && (lk == data.KindFloat || rk == data.KindFloat)
	li, lCol := colOf(b.L)
	ri, rCol := colOf(b.R)
	switch {
	case lCol && rCol && intHint:
		return func(_ *Ctx, row data.Row) data.Value {
			l, r := row[li], row[ri]
			if l.K == data.KindInt && r.K == data.KindInt {
				return arithIntFast(op, l.I, r.I)
			}
			return evalArith(op, l, r)
		}, nil
	case lCol && rCol && numHint:
		// The hinted kind pair is known exactly at compile time, so each
		// shape guards just its own pair and converts without AsFloat's
		// switch; any runtime surprise falls back to evalArith.
		switch {
		case lk == data.KindFloat && rk == data.KindFloat:
			return func(_ *Ctx, row data.Row) data.Value {
				l, r := row[li], row[ri]
				if l.K == data.KindFloat && r.K == data.KindFloat {
					return arithFloatFast(op, l.F, r.F)
				}
				return evalArith(op, l, r)
			}, nil
		case lk == data.KindInt:
			return func(_ *Ctx, row data.Row) data.Value {
				l, r := row[li], row[ri]
				if l.K == data.KindInt && r.K == data.KindFloat {
					return arithFloatFast(op, float64(l.I), r.F)
				}
				return evalArith(op, l, r)
			}, nil
		default: // lk float, rk int
			return func(_ *Ctx, row data.Row) data.Value {
				l, r := row[li], row[ri]
				if l.K == data.KindFloat && r.K == data.KindInt {
					return arithFloatFast(op, l.F, float64(r.I))
				}
				return evalArith(op, l, r)
			}, nil
		}
	case lCol && rCol:
		return func(_ *Ctx, row data.Row) data.Value {
			return evalArith(op, row[li], row[ri])
		}, nil
	case lCol && rc != nil && intHint && rc.K == data.KindInt:
		rv, rcv := rc.I, *rc
		return func(_ *Ctx, row data.Row) data.Value {
			l := row[li]
			if l.K == data.KindInt {
				return arithIntFast(op, l.I, rv)
			}
			return evalArith(op, l, rcv)
		}, nil
	case lCol && rc != nil:
		rcv := *rc
		return func(_ *Ctx, row data.Row) data.Value {
			return evalArith(op, row[li], rcv)
		}, nil
	case lCol:
		return func(ctx *Ctx, row data.Row) data.Value {
			return evalArith(op, row[li], rf(ctx, row))
		}, nil
	case rCol:
		return func(ctx *Ctx, row data.Row) data.Value {
			return evalArith(op, lf(ctx, row), row[ri])
		}, nil
	case lc != nil:
		lcv := *lc
		return func(ctx *Ctx, row data.Row) data.Value {
			return evalArith(op, lcv, rf(ctx, row))
		}, nil
	case rc != nil:
		rcv := *rc
		return func(ctx *Ctx, row data.Row) data.Value {
			return evalArith(op, lf(ctx, row), rcv)
		}, nil
	case intHint:
		return func(ctx *Ctx, row data.Row) data.Value {
			l, r := lf(ctx, row), rf(ctx, row)
			if l.K == data.KindInt && r.K == data.KindInt {
				return arithIntFast(op, l.I, r.I)
			}
			return evalArith(op, l, r)
		}, nil
	default:
		return func(ctx *Ctx, row data.Row) data.Value {
			return evalArith(op, lf(ctx, row), rf(ctx, row))
		}, nil
	}
}

// boolean compiles the predicate form of e: identical to
// e.Eval(row).Truth(), without materializing intermediate data.Bool values
// for comparisons and logic. The second result is non-nil when the truth
// value is a compile-time constant.
func (c *compiler) boolean(e Expr) (boolFn, *bool) {
	switch t := e.(type) {
	case *Const:
		k := t.V.Truth()
		return constBool(k), &k
	case *Param:
		k := t.V.Truth()
		return constBool(k), &k
	case *Not:
		pf, pc := c.boolean(t.E)
		if pc != nil {
			k := !*pc
			return constBool(k), &k
		}
		return func(ctx *Ctx, row data.Row) bool { return !pf(ctx, row) }, nil
	case *Bin:
		switch t.Op {
		case OpAnd:
			// The interpreter evaluates both sides eagerly; evaluation is
			// pure, so short-circuiting (and folding a constant side) cannot
			// change the observable result.
			lf, lc := c.boolean(t.L)
			rf, rc := c.boolean(t.R)
			if lc != nil {
				if !*lc {
					k := false
					return constBool(false), &k
				}
				return rf, rc
			}
			if rc != nil {
				if !*rc {
					k := false
					return constBool(false), &k
				}
				return lf, nil
			}
			return func(ctx *Ctx, row data.Row) bool { return lf(ctx, row) && rf(ctx, row) }, nil
		case OpOr:
			lf, lc := c.boolean(t.L)
			rf, rc := c.boolean(t.R)
			if lc != nil {
				if *lc {
					k := true
					return constBool(true), &k
				}
				return rf, rc
			}
			if rc != nil {
				if *rc {
					k := true
					return constBool(true), &k
				}
				return lf, nil
			}
			return func(ctx *Ctx, row data.Row) bool { return lf(ctx, row) || rf(ctx, row) }, nil
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			return c.cmp(t)
		}
	}
	// Generic: any other expression's truth is Eval(row).Truth().
	vf, vc := c.value(e)
	if vc != nil {
		k := vc.Truth()
		return constBool(k), &k
	}
	return func(ctx *Ctx, row data.Row) bool { return vf(ctx, row).Truth() }, nil
}

// cmpIntFast compares two int-payload values (both kinds already checked
// with Kind.IntPayload), matching data.Compare's integer branch exactly.
func cmpIntFast(op Op, l, r int64) bool {
	switch op {
	case OpEq:
		return l == r
	case OpNe:
		return l != r
	case OpLt:
		return l < r
	case OpLe:
		return l <= r
	case OpGt:
		return l > r
	default: // OpGe
		return l >= r
	}
}

// cmpFloatFast compares two float payloads (both already guarded
// KindFloat), phrased only in < and > so NaN behaves exactly like
// data.Compare, which reports NaN equal to everything.
func cmpFloatFast(op Op, l, r float64) bool {
	switch op {
	case OpEq:
		return !(l < r) && !(l > r)
	case OpNe:
		return l < r || l > r
	case OpLt:
		return l < r
	case OpLe:
		return !(l > r)
	case OpGt:
		return l > r
	default: // OpGe
		return !(l < r)
	}
}

// cmpGeneric evaluates a comparison with the interpreter's exact
// semantics: data.Equal / data.Compare.
func cmpGeneric(op Op, l, r data.Value) bool {
	switch op {
	case OpEq:
		return data.Equal(l, r)
	case OpNe:
		return !data.Equal(l, r)
	case OpLt:
		return data.Compare(l, r) < 0
	case OpLe:
		return data.Compare(l, r) <= 0
	case OpGt:
		return data.Compare(l, r) > 0
	default: // OpGe
		return data.Compare(l, r) >= 0
	}
}

// cmp compiles the six comparison operators to predicate closures. Like
// arith, every guard failure lands in cmpGeneric (data.Compare), so the
// int/float fast paths are speed-only. The right-constant variants cover
// the archetypal filter shape `col <op> literal` with a single fused
// closure: one row load, one guarded compare.
func (c *compiler) cmp(b *Bin) (boolFn, *bool) {
	op := b.Op
	lf, lc := c.value(b.L)
	rf, rc := c.value(b.R)
	if lc != nil && rc != nil {
		k := cmpGeneric(op, *lc, *rc)
		return constBool(k), &k
	}
	lk, rk := b.L.ResultKind(c.schema), b.R.ResultKind(c.schema)
	intHint := lk.IntPayload() && rk.IntPayload()
	floatHint := lk == data.KindFloat && rk == data.KindFloat
	li, lCol := colOf(b.L)
	ri, rCol := colOf(b.R)
	switch {
	case intHint && rc != nil && rc.K.IntPayload():
		rv, rcv := rc.I, *rc
		if lCol {
			return func(_ *Ctx, row data.Row) bool {
				l := row[li]
				if l.K.IntPayload() {
					return cmpIntFast(op, l.I, rv)
				}
				return cmpGeneric(op, l, rcv)
			}, nil
		}
		return func(ctx *Ctx, row data.Row) bool {
			l := lf(ctx, row)
			if l.K.IntPayload() {
				return cmpIntFast(op, l.I, rv)
			}
			return cmpGeneric(op, l, rcv)
		}, nil
	case floatHint && rc != nil && rc.K == data.KindFloat:
		rv, rcv := rc.F, *rc
		if lCol {
			return func(_ *Ctx, row data.Row) bool {
				l := row[li]
				if l.K == data.KindFloat {
					return cmpFloatFast(op, l.F, rv)
				}
				return cmpGeneric(op, l, rcv)
			}, nil
		}
		return func(ctx *Ctx, row data.Row) bool {
			l := lf(ctx, row)
			if l.K == data.KindFloat {
				return cmpFloatFast(op, l.F, rv)
			}
			return cmpGeneric(op, l, rcv)
		}, nil
	case intHint && lCol && rCol:
		return func(_ *Ctx, row data.Row) bool {
			l, r := row[li], row[ri]
			if l.K.IntPayload() && r.K.IntPayload() {
				return cmpIntFast(op, l.I, r.I)
			}
			return cmpGeneric(op, l, r)
		}, nil
	case intHint:
		return func(ctx *Ctx, row data.Row) bool {
			l, r := lf(ctx, row), rf(ctx, row)
			if l.K.IntPayload() && r.K.IntPayload() {
				return cmpIntFast(op, l.I, r.I)
			}
			return cmpGeneric(op, l, r)
		}, nil
	case floatHint && lCol && rCol:
		return func(_ *Ctx, row data.Row) bool {
			l, r := row[li], row[ri]
			if l.K == data.KindFloat && r.K == data.KindFloat {
				return cmpFloatFast(op, l.F, r.F)
			}
			return cmpGeneric(op, l, r)
		}, nil
	case floatHint:
		return func(ctx *Ctx, row data.Row) bool {
			l, r := lf(ctx, row), rf(ctx, row)
			if l.K == data.KindFloat && r.K == data.KindFloat {
				return cmpFloatFast(op, l.F, r.F)
			}
			return cmpGeneric(op, l, r)
		}, nil
	case lCol && rCol:
		return func(_ *Ctx, row data.Row) bool {
			return cmpGeneric(op, row[li], row[ri])
		}, nil
	case lCol:
		return func(ctx *Ctx, row data.Row) bool {
			return cmpGeneric(op, row[li], rf(ctx, row))
		}, nil
	case rCol:
		return func(ctx *Ctx, row data.Row) bool {
			return cmpGeneric(op, lf(ctx, row), row[ri])
		}, nil
	case rc != nil:
		rcv := *rc
		return func(ctx *Ctx, row data.Row) bool {
			return cmpGeneric(op, lf(ctx, row), rcv)
		}, nil
	case lc != nil:
		lcv := *lc
		return func(ctx *Ctx, row data.Row) bool {
			return cmpGeneric(op, lcv, rf(ctx, row))
		}, nil
	default:
		return func(ctx *Ctx, row data.Row) bool {
			return cmpGeneric(op, lf(ctx, row), rf(ctx, row))
		}, nil
	}
}

// tryFold evaluates a pure built-in over constant arguments at compile
// time. A body that panics (arity abuse on a malformed tree) declines the
// fold so the panic surfaces at evaluation time, exactly where the
// interpreter would raise it.
func tryFold(fn builtinFn, args []data.Value) (v data.Value, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return fn(args), true
}

func (c *compiler) fn(f *Func) (evalFn, *data.Value) {
	n := len(f.Args)
	afs := make([]evalFn, n)
	consts := make([]data.Value, n)
	allConst := true
	for i, a := range f.Args {
		af, ac := c.value(a)
		afs[i] = af
		if ac != nil {
			consts[i] = *ac
		} else {
			allConst = false
		}
	}
	bf := builtins[f.Name]
	if bf == nil {
		// Unknown function: the interpreter evaluates the arguments and
		// yields NULL; keep the argument evaluation.
		if allConst {
			v := data.Null()
			return constFn(v), &v
		}
		return func(ctx *Ctx, row data.Row) data.Value {
			for _, af := range afs {
				af(ctx, row)
			}
			return data.Null()
		}, nil
	}
	if allConst {
		if v, ok := tryFold(bf, consts); ok {
			return constFn(v), &v
		}
	}
	if n == 0 {
		return func(*Ctx, data.Row) data.Value { return bf(nil) }, nil
	}
	off := c.scratch
	c.scratch += n
	return func(ctx *Ctx, row data.Row) data.Value {
		args := ctx.args[off : off+n]
		for i, af := range afs {
			args[i] = af(ctx, row)
		}
		return bf(args)
	}, nil
}

func (c *compiler) udf(u *UDF) (evalFn, *data.Value) {
	// UDFs are never folded: a user-supplied Fn is called once per row like
	// the interpreter does, in case it is not a pure function.
	n := len(u.Args)
	afs := make([]evalFn, n)
	for i, a := range u.Args {
		afs[i], _ = c.value(a)
	}
	fn := u.Fn
	if fn != nil {
		if n == 0 {
			return func(*Ctx, data.Row) data.Value { return fn(nil) }, nil
		}
		off := c.scratch
		c.scratch += n
		return func(ctx *Ctx, row data.Row) data.Value {
			args := ctx.args[off : off+n]
			for i, af := range afs {
				args[i] = af(ctx, row)
			}
			return fn(args)
		}, nil
	}
	codeHash := data.String_(u.CodeHash).Hash64()
	if n == 0 {
		// With no arguments the default body is a pure function of the code
		// hash, so the result really is a constant.
		v := data.Int(int64((data.Row(nil).Hash64() ^ codeHash) & 0x7fffffffffffffff))
		return constFn(v), &v
	}
	off := c.scratch
	c.scratch += n
	return func(ctx *Ctx, row data.Row) data.Value {
		args := ctx.args[off : off+n]
		for i, af := range afs {
			args[i] = af(ctx, row)
		}
		h := data.Row(args).Hash64() ^ codeHash
		return data.Int(int64(h & 0x7fffffffffffffff))
	}, nil
}
