// Command sqlshell is an interactive shell for the embedded minisql engine
// — the "native interface" of the UDSM's SQL store, demonstrating that a
// key-value store backed by the engine coexists with direct SQL access.
// Statements run through the registered "minisql" database/sql driver with
// prepared-statement '?' parameter binding.
//
// Usage:
//
//	sqlshell                              # volatile in-memory database
//	sqlshell :memory:?cache_pages=64      # in-memory, small page cache
//	sqlshell ./mydb                       # durable database directory
//	sqlshell './mydb?page_size=8192&cache_pages=512'
//	sqlshell -c 'SELECT * FROM users' ./mydb   # run a script and exit
//
// Statements end with ';'. Bind '?' placeholders for the next statement
// with .bind:
//
//	sql> .bind 7 'alice'
//	sql> INSERT INTO users VALUES (?, ?);
//
// Meta commands:
//
//	.tables            list tables
//	.schema [table]    show CREATE statements
//	.pages             pager/file statistics (page size, counts, WAL bytes)
//	.cache             page-cache statistics (capacity, hits, evictions)
//	.bind [v ...]      set '?' params for the next statement (no args: clear)
//	.quit              exit
package main

import (
	"bufio"
	"database/sql"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"edsc/internal/minisql"
)

type shell struct {
	raw   *minisql.Database // engine handle for introspection meta-commands
	db    *sql.DB           // statement execution path (database/sql driver)
	binds []any             // pending '?' params for the next statement
}

func main() {
	cmd := flag.String("c", "", "execute this semicolon-separated script and exit")
	flag.Parse()

	dsn := flag.Arg(0) // "" (no argument) opens a volatile in-memory database
	raw, err := minisql.OpenDSN(dsn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlshell:", err)
		os.Exit(1)
	}
	defer raw.Close()
	sh := &shell{raw: raw, db: sql.OpenDB(minisql.NewConnector(raw))}
	defer sh.db.Close()

	if dsn == "" || strings.HasPrefix(dsn, ":memory:") {
		fmt.Println("minisql shell (in-memory; pass a path DSN for a durable database)")
	} else {
		fmt.Printf("minisql shell (database %s)\n", dsn)
	}

	if *cmd != "" {
		for _, stmt := range splitScript(*cmd) {
			sh.execute(stmt)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := "sql> "
	fmt.Print(prompt)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, ".") {
			if sh.meta(trimmed) {
				return
			}
			fmt.Print(prompt)
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.HasSuffix(trimmed, ";") {
			fmt.Print("...> ")
			continue
		}
		sh.execute(pending.String())
		pending.Reset()
		fmt.Print(prompt)
	}
}

// meta runs one dot-command; it reports whether the shell should exit.
func (sh *shell) meta(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".quit", ".exit":
		return true
	case ".tables":
		for _, t := range sh.raw.Tables() {
			fmt.Println(t)
		}
	case ".schema":
		name := ""
		if len(fields) > 1 {
			name = fields[1]
		}
		ddl, err := sh.raw.Schema(name)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Print(ddl)
	case ".pages":
		st, err := sh.raw.Stats()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("page size:    %d bytes\n", st.PageSize)
		fmt.Printf("pages:        %d (%d on free list)\n", st.Pages, st.FreePages)
		fmt.Printf("file bytes:   %d\n", int64(st.Pages)*int64(st.PageSize))
		fmt.Printf("wal bytes:    %d\n", st.WALBytes)
	case ".cache":
		st, err := sh.raw.Stats()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("capacity:     %d pages\n", st.CacheCap)
		fmt.Printf("resident:     %d pages (%d dirty)\n", st.CacheUsed, st.DirtyPages)
		fmt.Printf("hits/misses:  %d/%d", st.Hits, st.Misses)
		if total := st.Hits + st.Misses; total > 0 {
			fmt.Printf(" (%.1f%% hit rate)", 100*float64(st.Hits)/float64(total))
		}
		fmt.Println()
		fmt.Printf("evictions:    %d\n", st.Evictions)
	case ".bind":
		sh.binds = sh.binds[:0]
		args, err := parseBindArgs(strings.TrimSpace(strings.TrimPrefix(line, ".bind")))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		sh.binds = args
		fmt.Printf("bound %d params for the next statement\n", len(args))
	case ".help":
		fmt.Println(".tables  .schema [table]  .pages  .cache  .bind [v ...]  .quit")
	default:
		fmt.Printf("unknown meta command %s (try .help)\n", fields[0])
	}
	return false
}

// parseBindArgs parses .bind arguments as SQL-ish literals: integers,
// floats, 'quoted text', x'hex' blobs, NULL, TRUE/FALSE; anything else is
// taken as raw text.
func parseBindArgs(s string) ([]any, error) {
	var out []any
	for s != "" {
		s = strings.TrimSpace(s)
		if s == "" {
			break
		}
		var tok string
		if s[0] == '\'' || (len(s) > 1 && (s[0] == 'x' || s[0] == 'X') && s[1] == '\'') {
			start := strings.IndexByte(s, '\'')
			// Find the closing quote, treating '' as an escaped quote.
			end := -1
			for i := start + 1; i < len(s); i++ {
				if s[i] != '\'' {
					continue
				}
				if i+1 < len(s) && s[i+1] == '\'' {
					i++ // skip the doubled quote
					continue
				}
				end = i
				break
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated quote in %q", s)
			}
			tok, s = s[:end+1], s[end+1:]
		} else if i := strings.IndexByte(s, ' '); i >= 0 {
			tok, s = s[:i], s[i+1:]
		} else {
			tok, s = s, ""
		}
		out = append(out, literalValue(tok))
	}
	return out, nil
}

func literalValue(tok string) any {
	up := strings.ToUpper(tok)
	switch {
	case up == "NULL":
		return nil
	case up == "TRUE":
		return true
	case up == "FALSE":
		return false
	case strings.HasPrefix(tok, "'") && strings.HasSuffix(tok, "'") && len(tok) >= 2:
		return strings.ReplaceAll(tok[1:len(tok)-1], "''", "'")
	case (strings.HasPrefix(up, "X'")) && strings.HasSuffix(tok, "'"):
		hex := tok[2 : len(tok)-1]
		b := make([]byte, 0, len(hex)/2)
		for i := 0; i+1 < len(hex); i += 2 {
			var v byte
			fmt.Sscanf(hex[i:i+2], "%02x", &v)
			b = append(b, v)
		}
		return b
	default:
		if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
			return n
		}
		if f, err := strconv.ParseFloat(tok, 64); err == nil {
			return f
		}
		return tok
	}
}

// splitScript breaks a -c script on top-level semicolons (quotes respected
// by reusing the executor's own statement-at-a-time parsing: we split
// naively and let parse errors surface, which is fine for a dev shell).
func splitScript(script string) []string {
	parts := strings.Split(script, ";")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if strings.TrimSpace(p) != "" {
			out = append(out, p)
		}
	}
	return out
}

func (sh *shell) execute(query string) {
	query = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(query), ";"))
	if query == "" {
		return
	}
	args := sh.binds
	sh.binds = nil
	if strings.HasPrefix(strings.ToUpper(query), "SELECT") {
		rows, err := sh.db.Query(query, args...)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		defer rows.Close()
		printRows(rows)
		return
	}
	res, err := sh.db.Exec(query, args...)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	n, _ := res.RowsAffected()
	fmt.Printf("ok (%d rows affected)\n", n)
}

func printRows(rows *sql.Rows) {
	cols, err := rows.Columns()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	var rendered [][]string
	raw := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range raw {
		ptrs[i] = &raw[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			fmt.Println("error:", err)
			return
		}
		out := make([]string, len(cols))
		for i, v := range raw {
			s := renderCell(v)
			out[i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
		rendered = append(rendered, out)
	}
	if err := rows.Err(); err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, c := range cols {
		fmt.Printf("%-*s ", widths[i], c)
	}
	fmt.Println()
	for i := range cols {
		fmt.Print(strings.Repeat("-", widths[i]), " ")
	}
	fmt.Println()
	for _, row := range rendered {
		for i, s := range row {
			fmt.Printf("%-*s ", widths[i], s)
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows)\n", len(rendered))
}

func renderCell(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case []byte:
		return fmt.Sprintf("x'%x'", x)
	case bool:
		if x {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("%v", x)
	}
}
