package minisql

import (
	"fmt"
	"strings"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString // 'single quoted'
	tokBlob   // x'hex'
	tokSymbol // punctuation and operators
	tokParam  // '?' placeholder (parsed into a ParamExpr slot)
)

// token is one lexical token.
type token struct {
	kind tokKind
	text string // keywords upper-cased; idents as written; symbols literal
	pos  int    // byte offset, for error messages
}

// keywords recognised by the parser. Identifiers matching these
// (case-insensitively) become tokKeyword.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"TABLE": true, "DROP": true, "IF": true, "EXISTS": true, "NOT": true,
	"NULL": true, "PRIMARY": true, "KEY": true, "AND": true, "OR": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true, "LIMIT": true,
	"OFFSET": true, "LIKE": true, "IN": true, "IS": true, "BEGIN": true,
	"COMMIT": true, "ROLLBACK": true, "TRUE": true, "FALSE": true,
	"INTEGER": true, "INT": true, "REAL": true, "FLOAT": true, "TEXT": true,
	"VARCHAR": true, "BLOB": true, "BOOLEAN": true, "BOOL": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"REPLACE": true, "UNIQUE": true, "AS": true, "DISTINCT": true,
	"GROUP": true, "HAVING": true, "JOIN": true, "LEFT": true,
	"INNER": true, "OUTER": true, "ON": true, "INDEX": true, "BETWEEN": true,
	"TRANSACTION": true,
}

// lex tokenizes input.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // -- comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			// x'ab' blob literal
			if (up == "X") && i < n && input[i] == '\'' {
				lit, next, err := lexString(input, i)
				if err != nil {
					return nil, err
				}
				hex := strings.ToLower(lit)
				if len(hex)%2 != 0 || !isHex(hex) {
					return nil, fmt.Errorf("minisql: invalid blob literal at offset %d", start)
				}
				toks = append(toks, token{kind: tokBlob, text: hex, pos: start})
				i = next
				continue
			}
			if keywords[up] {
				toks = append(toks, token{kind: tokKeyword, text: up, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: start})
			}
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9'):
			start := i
			isFloat := false
			for i < n && (input[i] >= '0' && input[i] <= '9') {
				i++
			}
			if i < n && input[i] == '.' {
				isFloat = true
				i++
				for i < n && (input[i] >= '0' && input[i] <= '9') {
					i++
				}
			}
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				isFloat = true
				i++
				if i < n && (input[i] == '+' || input[i] == '-') {
					i++
				}
				for i < n && (input[i] >= '0' && input[i] <= '9') {
					i++
				}
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind: kind, text: input[start:i], pos: start})
		case c == '\'':
			lit, next, err := lexString(input, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{kind: tokString, text: lit, pos: i})
			i = next
		case c == '"': // quoted identifier; "" escapes an embedded quote
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '"' {
					if i+1 < n && input[i+1] == '"' {
						sb.WriteByte('"')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("minisql: unterminated quoted identifier at offset %d", start)
			}
			toks = append(toks, token{kind: tokIdent, text: sb.String(), pos: start})
		default:
			start := i
			// multi-char operators first
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=":
				toks = append(toks, token{kind: tokSymbol, text: two, pos: start})
				i += 2
				continue
			}
			switch c {
			case '?':
				toks = append(toks, token{kind: tokParam, text: "?", pos: start})
				i++
			case '(', ')', ',', ';', '*', '+', '-', '/', '%', '=', '<', '>', '.':
				toks = append(toks, token{kind: tokSymbol, text: string(c), pos: start})
				i++
			default:
				return nil, fmt.Errorf("minisql: unexpected character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

// lexString reads a single-quoted literal starting at input[start] == '\”.
// Doubled quotes escape a quote ('it”s').
func lexString(input string, start int) (string, int, error) {
	i := start + 1
	n := len(input)
	var sb strings.Builder
	for i < n {
		if input[i] == '\'' {
			if i+1 < n && input[i+1] == '\'' {
				sb.WriteByte('\'')
				i += 2
				continue
			}
			return sb.String(), i + 1, nil
		}
		sb.WriteByte(input[i])
		i++
	}
	return "", 0, fmt.Errorf("minisql: unterminated string literal at offset %d", start)
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}
