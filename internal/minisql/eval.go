package minisql

import (
	"fmt"
	"math"
)

// rowEnv is what an expression is evaluated against: the values bound to the
// statement's '?' slots and, unless t is nil (constants only), one row of
// table t to resolve column references in.
type rowEnv struct {
	t      *table
	row    []Value
	params []Value
}

// evalExpr computes e against env. NULL propagates through operators in the
// SQL way: any operand NULL makes comparisons and arithmetic NULL, with
// AND/OR using three-valued logic.
func evalExpr(e Expr, env *rowEnv) (Value, error) {
	switch n := e.(type) {
	case *LiteralExpr:
		return n.Val, nil
	case *ParamExpr:
		if n.Idx >= len(env.params) {
			return Value{}, fmt.Errorf("minisql: placeholder %d has no bound value (got %d parameters)", n.Idx+1, len(env.params))
		}
		return env.params[n.Idx], nil
	case *ColumnExpr:
		if env.t == nil {
			return Value{}, fmt.Errorf("minisql: column %q not allowed here", n.Name)
		}
		i, ok := env.t.colIdx[n.Name]
		if !ok {
			return Value{}, fmt.Errorf("minisql: no column %q", n.Name)
		}
		return env.row[i], nil
	case *UnaryExpr:
		x, err := evalExpr(n.X, env)
		if err != nil {
			return Value{}, err
		}
		if x.IsNull() {
			return Null(), nil
		}
		switch n.Op {
		case "-":
			switch x.Kind {
			case KindInt:
				return Int(-x.Int), nil
			case KindFloat:
				return Float(-x.Float), nil
			}
			return Value{}, fmt.Errorf("minisql: cannot negate %s", x.Kind)
		case "NOT":
			if x.Kind != KindBool {
				return Value{}, fmt.Errorf("minisql: NOT requires a boolean, got %s", x.Kind)
			}
			return Bool(!x.Bool), nil
		}
		return Value{}, fmt.Errorf("minisql: unknown unary op %q", n.Op)
	case *BinaryExpr:
		return evalBinary(n, env)
	case *IsNullExpr:
		x, err := evalExpr(n.X, env)
		if err != nil {
			return Value{}, err
		}
		return Bool(x.IsNull() != n.Not), nil
	case *InExpr:
		x, err := evalExpr(n.X, env)
		if err != nil {
			return Value{}, err
		}
		if x.IsNull() {
			return Null(), nil
		}
		sawNull := false
		for _, item := range n.List {
			v, err := evalExpr(item, env)
			if err != nil {
				return Value{}, err
			}
			if v.IsNull() {
				sawNull = true
				continue
			}
			eq, err := Equal(x, v)
			if err != nil {
				return Value{}, err
			}
			if eq {
				return Bool(!n.Not), nil
			}
		}
		if sawNull {
			return Null(), nil // unknown, SQL semantics
		}
		return Bool(n.Not), nil
	case *FuncExpr:
		args := make([]Value, len(n.Args))
		for i, a := range n.Args {
			v, err := evalExpr(a, env)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		return evalFunc(n.Name, args)
	default:
		return Value{}, fmt.Errorf("minisql: unknown expression %T", e)
	}
}

// evalFunc computes a scalar function; any NULL argument yields NULL.
func evalFunc(name string, args []Value) (Value, error) {
	for _, v := range args {
		if v.IsNull() {
			return Null(), nil
		}
	}
	switch name {
	case "LENGTH":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("minisql: LENGTH expects 1 argument, got %d", len(args))
		}
		switch args[0].Kind {
		case KindText:
			return Int(int64(len(args[0].Str))), nil
		case KindBlob:
			return Int(int64(len(args[0].Bytes))), nil
		default:
			return Value{}, fmt.Errorf("minisql: LENGTH expects text or blob")
		}
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return Value{}, fmt.Errorf("minisql: SUBSTR expects 2 or 3 arguments")
		}
		if args[0].Kind != KindText || args[1].Kind != KindInt {
			return Value{}, fmt.Errorf("minisql: SUBSTR expects (text, int[, int])")
		}
		s := args[0].Str
		// 1-based start, as in SQL.
		start := int(args[1].Int) - 1
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(args) == 3 {
			if args[2].Kind != KindInt {
				return Value{}, fmt.Errorf("minisql: SUBSTR length must be an integer")
			}
			if n := int(args[2].Int); n >= 0 && start+n < end {
				end = start + n
			}
		}
		return Text(s[start:end]), nil
	default:
		return Value{}, fmt.Errorf("minisql: unknown function %s", name)
	}
}

func evalBinary(n *BinaryExpr, env *rowEnv) (Value, error) {
	// AND/OR need three-valued logic with short-circuiting.
	if n.Op == "AND" || n.Op == "OR" {
		l, err := evalExpr(n.L, env)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNull() && l.Kind != KindBool {
			return Value{}, fmt.Errorf("minisql: %s requires booleans", n.Op)
		}
		if n.Op == "AND" && !l.IsNull() && !l.Bool {
			return Bool(false), nil
		}
		if n.Op == "OR" && !l.IsNull() && l.Bool {
			return Bool(true), nil
		}
		r, err := evalExpr(n.R, env)
		if err != nil {
			return Value{}, err
		}
		if !r.IsNull() && r.Kind != KindBool {
			return Value{}, fmt.Errorf("minisql: %s requires booleans", n.Op)
		}
		switch {
		case n.Op == "AND" && !r.IsNull() && !r.Bool:
			return Bool(false), nil
		case n.Op == "OR" && !r.IsNull() && r.Bool:
			return Bool(true), nil
		case l.IsNull() || r.IsNull():
			return Null(), nil
		case n.Op == "AND":
			return Bool(l.Bool && r.Bool), nil
		default:
			return Bool(l.Bool || r.Bool), nil
		}
	}

	l, err := evalExpr(n.L, env)
	if err != nil {
		return Value{}, err
	}
	r, err := evalExpr(n.R, env)
	if err != nil {
		return Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	switch n.Op {
	case "+", "-", "*", "/", "%":
		return evalArith(n.Op, l, r)
	case "=", "!=":
		eq, err := Equal(l, r)
		if err != nil {
			return Value{}, err
		}
		return Bool(eq == (n.Op == "=")), nil
	case "<", "<=", ">", ">=":
		c, err := Compare(l, r)
		if err != nil {
			return Value{}, err
		}
		switch n.Op {
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	default:
		return Value{}, fmt.Errorf("minisql: unknown operator %q", n.Op)
	}
}

func evalArith(op string, l, r Value) (Value, error) {
	// TEXT + TEXT is string concatenation, a convenience many engines allow.
	if op == "+" && l.Kind == KindText && r.Kind == KindText {
		return Text(l.Str + r.Str), nil
	}
	lf, lok := l.numeric()
	rf, rok := r.numeric()
	if !lok || !rok {
		return Value{}, fmt.Errorf("minisql: arithmetic requires numbers, got %s and %s", l.Kind, r.Kind)
	}
	bothInt := l.Kind == KindInt && r.Kind == KindInt
	switch op {
	case "+":
		if bothInt {
			return Int(l.Int + r.Int), nil
		}
		return Float(lf + rf), nil
	case "-":
		if bothInt {
			return Int(l.Int - r.Int), nil
		}
		return Float(lf - rf), nil
	case "*":
		if bothInt {
			return Int(l.Int * r.Int), nil
		}
		return Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return Value{}, fmt.Errorf("minisql: division by zero")
		}
		if bothInt {
			return Int(l.Int / r.Int), nil
		}
		return Float(lf / rf), nil
	case "%":
		if !bothInt {
			return Value{}, fmt.Errorf("minisql: %% requires integers")
		}
		if r.Int == 0 {
			return Value{}, fmt.Errorf("minisql: division by zero")
		}
		return Int(l.Int % r.Int), nil
	}
	return Value{}, fmt.Errorf("minisql: unknown arithmetic op %q", op)
}

// truthy interprets a WHERE result: only TRUE selects the row.
func truthy(v Value) bool { return v.Kind == KindBool && v.Bool }

// requireInt extracts a non-negative int from a LIMIT/OFFSET expression.
func requireInt(e Expr, params []Value, what string) (int, error) {
	v, err := evalExpr(e, &rowEnv{params: params})
	if err != nil {
		return 0, err
	}
	switch v.Kind {
	case KindInt:
		if v.Int < 0 || v.Int > math.MaxInt32 {
			return 0, fmt.Errorf("minisql: %s out of range", what)
		}
		return int(v.Int), nil
	default:
		return 0, fmt.Errorf("minisql: %s must be an integer", what)
	}
}
