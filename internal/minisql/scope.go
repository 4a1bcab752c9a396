package minisql

import "fmt"

// scope maps column references to positions in a (possibly joined) row.
// For a single table, positions are the declared column order; joining
// appends the right table's columns after the left's. A scope is read-only
// once built (join returns a new one), so a table's default scope is shared
// by every statement and goroutine that names the table.
type scope struct {
	// unq maps unqualified names to positions; ambiguous names (present
	// in more than one joined table) map to -1.
	unq map[string]int
	// qual maps "alias.column" to positions.
	qual map[string]int
	// names lists column names in row order (for SELECT *).
	names []string
	// aliases lists the table aliases in join order.
	aliases []string
	// ranges maps each alias to its [start, length] slice of the row
	// (for alias.* projection).
	ranges map[string][2]int
}

// tableScope builds the scope of one table under the given alias.
func tableScope(alias string, t *table) *scope {
	sc := &scope{
		unq:     make(map[string]int, len(t.schema.Cols)),
		qual:    make(map[string]int, len(t.schema.Cols)),
		aliases: []string{alias},
		ranges:  map[string][2]int{alias: {0, len(t.schema.Cols)}},
	}
	for i, c := range t.schema.Cols {
		sc.unq[c.Name] = i
		sc.qual[alias+"."+c.Name] = i
		sc.names = append(sc.names, c.Name)
	}
	return sc
}

// join returns the scope of rows formed by appending other's columns after
// sc's. Unqualified names that exist on both sides become ambiguous.
func (sc *scope) join(other *scope) (*scope, error) {
	for _, a := range sc.aliases {
		for _, b := range other.aliases {
			if a == b {
				return nil, fmt.Errorf("minisql: duplicate table alias %q in join", a)
			}
		}
	}
	out := &scope{
		unq:     make(map[string]int, len(sc.unq)+len(other.unq)),
		qual:    make(map[string]int, len(sc.qual)+len(other.qual)),
		names:   append(append([]string(nil), sc.names...), other.names...),
		aliases: append(append([]string(nil), sc.aliases...), other.aliases...),
		ranges:  make(map[string][2]int, len(sc.ranges)+len(other.ranges)),
	}
	for a, r := range sc.ranges {
		out.ranges[a] = r
	}
	offR := len(sc.names)
	for a, r := range other.ranges {
		out.ranges[a] = [2]int{r[0] + offR, r[1]}
	}
	for k, v := range sc.unq {
		out.unq[k] = v
	}
	for k, v := range sc.qual {
		out.qual[k] = v
	}
	off := len(sc.names)
	for k, v := range other.unq {
		if _, dup := out.unq[k]; dup {
			out.unq[k] = -1 // ambiguous
		} else if v >= 0 {
			out.unq[k] = v + off
		}
	}
	for k, v := range other.qual {
		out.qual[k] = v + off
	}
	return out, nil
}

// lookup resolves a (possibly qualified) column reference.
func (sc *scope) lookup(tbl, name string) (int, error) {
	if tbl != "" {
		pos, ok := sc.qual[tbl+"."+name]
		if !ok {
			return 0, fmt.Errorf("minisql: no column %q in table %q", name, tbl)
		}
		return pos, nil
	}
	pos, ok := sc.unq[name]
	if !ok {
		return 0, fmt.Errorf("minisql: no column %q", name)
	}
	if pos < 0 {
		return 0, fmt.Errorf("minisql: column %q is ambiguous; qualify it with a table name", name)
	}
	return pos, nil
}
