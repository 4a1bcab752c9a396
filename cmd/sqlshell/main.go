// Command sqlshell is an interactive shell for the embedded minisql engine
// — the "native interface" of the UDSM's SQL store, demonstrating that a
// key-value store backed by the engine coexists with direct SQL access.
// Statements run on one engine Session, parsed once with typed '?'
// parameter binding; a SELECT is told from the rest by its parsed form.
//
// Usage:
//
//	sqlshell                              # volatile in-memory database
//	sqlshell :memory:?cache_pages=64      # in-memory, small page cache
//	sqlshell ./mydb                       # durable database directory
//	sqlshell './mydb?page_size=8192&cache_pages=512'
//	sqlshell -c 'SELECT * FROM users' ./mydb   # run a script and exit
//
// A -c script is parsed whole before any of it runs: if it does not parse,
// the shell prints the error and runs none of its statements.
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
//
// On exit the shell closes the database, which discards a transaction left
// open.
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"edsc/internal/minisql"
)

type shell struct {
	db    *minisql.Database
	sess  *minisql.Session
	out   io.Writer
	binds []minisql.Value // pending '?' params for the next statement
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sqlshell:", err)
		os.Exit(1)
	}
}

// run is the shell: flags and the DSN from args, statements from the -c
// script or else from stdin, everything it prints to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) (err error) {
	flags := flag.NewFlagSet("sqlshell", flag.ExitOnError)
	cmd := flags.String("c", "", "execute this semicolon-separated script and exit")
	flags.Parse(args) // ExitOnError: a bad flag exits here

	dsn := flags.Arg(0) // "" (no argument) opens a volatile in-memory database
	db, err := minisql.OpenDSN(dsn)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}()
	sh := &shell{db: db, sess: db.NewSession(), out: stdout}

	if dsn == "" || strings.HasPrefix(dsn, ":memory:") {
		fmt.Fprintln(stdout, "minisql shell (in-memory; pass a path DSN for a durable database)")
	} else {
		fmt.Fprintf(stdout, "minisql shell (database %s)\n", dsn)
	}

	if *cmd != "" {
		stmts, err := minisql.ParseAll(*cmd)
		if err != nil {
			fmt.Fprintln(stdout, "error:", err)
			return nil
		}
		for _, stmt := range stmts {
			if sel, ok := stmt.(*minisql.SelectStmt); ok {
				sh.printRows(sh.sess.QueryStmt(sel))
			} else {
				sh.printExec(sh.sess.ExecStmt(stmt))
			}
		}
		return nil
	}

	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := "sql> "
	fmt.Fprint(stdout, prompt)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, ".") {
			if sh.meta(trimmed) {
				return nil
			}
			fmt.Fprint(stdout, prompt)
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.HasSuffix(trimmed, ";") {
			fmt.Fprint(stdout, "...> ")
			continue
		}
		sh.execute(pending.String())
		pending.Reset()
		fmt.Fprint(stdout, prompt)
	}
	return nil
}

// meta runs one dot-command; it reports whether the shell should exit.
func (sh *shell) meta(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".quit", ".exit":
		return true
	case ".tables":
		for _, t := range sh.db.Tables() {
			fmt.Fprintln(sh.out, t)
		}
	case ".schema":
		name := ""
		if len(fields) > 1 {
			name = fields[1]
		}
		ddl, err := sh.db.Schema(name)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			break
		}
		fmt.Fprint(sh.out, ddl)
	case ".pages":
		st, err := sh.db.Stats()
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			break
		}
		fmt.Fprintf(sh.out, "page size:    %d bytes\n", st.PageSize)
		fmt.Fprintf(sh.out, "pages:        %d (%d on free list)\n", st.Pages, st.FreePages)
		fmt.Fprintf(sh.out, "file bytes:   %d\n", int64(st.Pages)*int64(st.PageSize))
		fmt.Fprintf(sh.out, "wal bytes:    %d\n", st.WALBytes)
	case ".cache":
		st, err := sh.db.Stats()
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			break
		}
		fmt.Fprintf(sh.out, "capacity:     %d pages\n", st.CacheCap)
		fmt.Fprintf(sh.out, "resident:     %d pages (%d dirty)\n", st.CacheUsed, st.DirtyPages)
		fmt.Fprintf(sh.out, "hits/misses:  %d/%d", st.Hits, st.Misses)
		if total := st.Hits + st.Misses; total > 0 {
			fmt.Fprintf(sh.out, " (%.1f%% hit rate)", 100*float64(st.Hits)/float64(total))
		}
		fmt.Fprintln(sh.out)
		fmt.Fprintf(sh.out, "evictions:    %d\n", st.Evictions)
	case ".bind":
		sh.binds = nil
		args, err := parseBindArgs(strings.TrimSpace(strings.TrimPrefix(line, ".bind")))
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			break
		}
		sh.binds = args
		fmt.Fprintf(sh.out, "bound %d params for the next statement\n", len(args))
	case ".help":
		fmt.Fprintln(sh.out, ".tables  .schema [table]  .pages  .cache  .bind [v ...]  .quit")
	default:
		fmt.Fprintf(sh.out, "unknown meta command %s (try .help)\n", fields[0])
	}
	return false
}

// parseBindArgs parses .bind arguments as SQL-ish literals: integers,
// floats, 'quoted text', x'hex' blobs, NULL, TRUE/FALSE; anything else is
// taken as raw text.
func parseBindArgs(s string) ([]minisql.Value, error) {
	var out []minisql.Value
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
		v, err := literalValue(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func literalValue(tok string) (minisql.Value, error) {
	up := strings.ToUpper(tok)
	switch {
	case up == "NULL":
		return minisql.Null(), nil
	case up == "TRUE":
		return minisql.Bool(true), nil
	case up == "FALSE":
		return minisql.Bool(false), nil
	case strings.HasPrefix(tok, "'") && strings.HasSuffix(tok, "'") && len(tok) >= 2:
		return minisql.Text(strings.ReplaceAll(tok[1:len(tok)-1], "''", "'")), nil
	case strings.HasPrefix(up, "X'") && strings.HasSuffix(tok, "'"):
		b, err := hex.DecodeString(tok[2 : len(tok)-1])
		if err != nil {
			return minisql.Value{}, fmt.Errorf("blob %s: %w", tok, err)
		}
		return minisql.Blob(b), nil
	default:
		if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
			return minisql.Int(n), nil
		}
		if f, err := strconv.ParseFloat(tok, 64); err == nil {
			return minisql.Float(f), nil
		}
		return minisql.Text(tok), nil
	}
}

// execute prepares one statement typed at the prompt and runs it with the
// pending .bind values: Query for a SELECT, Exec for anything else.
func (sh *shell) execute(query string) {
	if strings.Trim(query, "; \t\r\n") == "" {
		return
	}
	args := sh.binds
	sh.binds = nil
	p, err := sh.sess.Prepare(query)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	if _, ok := p.Stmt().(*minisql.SelectStmt); ok {
		sh.printRows(p.Query(args...))
		return
	}
	sh.printExec(p.Exec(args...))
}

func (sh *shell) printExec(n int, err error) {
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	fmt.Fprintf(sh.out, "ok (%d rows affected)\n", n)
}

func (sh *shell) printRows(res *minisql.Result, err error) {
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	rendered := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		rendered[r] = make([]string, len(row))
		for i, v := range row {
			s := renderCell(v)
			rendered[r][i] = s
			widths[i] = max(widths[i], len(s))
		}
	}
	for i, c := range res.Columns {
		fmt.Fprintf(sh.out, "%-*s ", widths[i], c)
	}
	fmt.Fprintln(sh.out)
	for i := range res.Columns {
		fmt.Fprint(sh.out, strings.Repeat("-", widths[i]), " ")
	}
	fmt.Fprintln(sh.out)
	for _, row := range rendered {
		for i, s := range row {
			fmt.Fprintf(sh.out, "%-*s ", widths[i], s)
		}
		fmt.Fprintln(sh.out)
	}
	fmt.Fprintf(sh.out, "(%d rows)\n", len(rendered))
}

func renderCell(v minisql.Value) string {
	switch v.Kind {
	case minisql.KindNull:
		return "NULL"
	case minisql.KindBlob:
		return fmt.Sprintf("x'%x'", v.Bytes)
	default:
		return v.String() // TRUE/FALSE for a BOOLEAN
	}
}
