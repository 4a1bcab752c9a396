// Package minisql is an embedded relational engine: the repository's
// stand-in for the MySQL-over-JDBC data store in the paper's evaluation.
//
// It implements the slice of SQL a key-value client and the paper's
// workloads need — CREATE/DROP TABLE, INSERT (with OR REPLACE), SELECT with
// WHERE/ORDER BY/LIMIT and basic aggregates, UPDATE, DELETE, and
// transactions — over an in-memory heap with a primary-key index, made
// durable by a write-ahead log that is fsynced on every commit. That commit
// cost is deliberate: it is what makes SQL-store writes visibly more
// expensive than reads in Fig. 10, the property the paper highlights
// ("writes involve costly commit operations").
package minisql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates SQL value types.
type Kind int

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBlob
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindText:
		return "TEXT"
	case KindBlob:
		return "BLOB"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is one SQL value. The zero Value is NULL.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
	Bytes []byte
	Bool  bool
}

// Constructors.

func Null() Value           { return Value{} }
func Int(v int64) Value     { return Value{Kind: KindInt, Int: v} }
func Float(v float64) Value { return Value{Kind: KindFloat, Float: v} }
func Text(s string) Value   { return Value{Kind: KindText, Str: s} }
func Blob(b []byte) Value   { return Value{Kind: KindBlob, Bytes: b} }
func Bool(b bool) Value     { return Value{Kind: KindBool, Bool: b} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders v for result sets and error messages.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindText:
		return v.Str
	case KindBlob:
		return string(v.Bytes)
	case KindBool:
		if v.Bool {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// numeric returns v as float64 when v is INT or REAL.
func (v Value) numeric() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	default:
		return 0, false
	}
}

// Compare orders two non-NULL values, returning -1, 0, or 1. Numeric kinds
// compare numerically across INT/REAL; otherwise kinds must match.
func Compare(a, b Value) (int, error) {
	if an, ok := a.numeric(); ok {
		if bn, ok := b.numeric(); ok {
			switch {
			case an < bn:
				return -1, nil
			case an > bn:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if a.Kind != b.Kind {
		return 0, fmt.Errorf("minisql: cannot compare %s with %s", a.Kind, b.Kind)
	}
	switch a.Kind {
	case KindText:
		return strings.Compare(a.Str, b.Str), nil
	case KindBlob:
		return strings.Compare(string(a.Bytes), string(b.Bytes)), nil
	case KindBool:
		ai, bi := 0, 0
		if a.Bool {
			ai = 1
		}
		if b.Bool {
			bi = 1
		}
		return ai - bi, nil
	default:
		return 0, fmt.Errorf("minisql: cannot compare %s values", a.Kind)
	}
}

// Equal reports SQL equality of non-NULL values (NULL handling is the
// evaluator's concern).
func Equal(a, b Value) (bool, error) {
	c, err := Compare(a, b)
	return c == 0, err
}

// coerce converts v to the declared column kind where the conversion is
// lossless and conventional (INT<->REAL, TEXT->BLOB); otherwise it reports
// a type error. NULLs pass through.
func coerce(v Value, to Kind) (Value, error) {
	if v.IsNull() || v.Kind == to {
		return v, nil
	}
	switch {
	case to == KindFloat && v.Kind == KindInt:
		return Float(float64(v.Int)), nil
	case to == KindInt && v.Kind == KindFloat:
		if v.Float == math.Trunc(v.Float) {
			return Int(int64(v.Float)), nil
		}
		return Value{}, fmt.Errorf("minisql: cannot store non-integral %v in INTEGER column", v.Float)
	case to == KindBlob && v.Kind == KindText:
		return Blob([]byte(v.Str)), nil
	case to == KindText && v.Kind == KindBlob:
		return Text(string(v.Bytes)), nil
	default:
		return Value{}, fmt.Errorf("minisql: cannot store %s value in %s column", v.Kind, to)
	}
}
