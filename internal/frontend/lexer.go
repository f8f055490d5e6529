// Package frontend compiles a small loop language into dependence
// graphs, giving the scheduler a real input path besides the synthetic
// suite and the raw ddg text format:
//
//	# dot product with a reduction
//	loop dotprod {
//	    s = s + a[i] * b[i]
//	}
//
//	# three-point stencil carried through memory
//	loop smooth {
//	    x[i] = (x[i-1] + in[i] + in[i+1]) / 3.0
//	}
//
// One loop body describes one iteration over the index variable i.
// Array accesses name[i+k] become loads and stores; scalars assigned
// in the loop carry values between operations (reading a scalar whose
// definition comes later in the body, or reading the statement's own
// target, uses the previous iteration's value — a recurrence); scalars
// never assigned are loop invariants held in registers and constants
// fold away. Memory dependences between accesses to the same array
// (RAW, WAR, WAW) are derived from the subscript offsets.
package frontend

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokAssign  // =
	tokPlus    // +
	tokMinus   // -
	tokStar    // *
	tokSlash   // /
	tokLParen  // (
	tokRParen  // )
	tokLBrack  // [
	tokRBrack  // ]
	tokLBrace  // {
	tokRBrace  // }
	tokLoop    // keyword "loop"
	tokNewline // statement separator (newline or ';')
	tokComma   // ,
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokAssign:
		return "'='"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrack:
		return "'['"
	case tokRBrack:
		return "']'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLoop:
		return "'loop'"
	case tokComma:
		return "','"
	case tokNewline:
		return "end of statement"
	default:
		return "token"
	}
}

type token struct {
	kind tokenKind
	text string
	line int
}

// lex tokenizes the whole source. '#' comments run to end of line;
// newlines and ';' are statement separators.
//
// The token slab is presized from the source length: generated loops
// average ~1.6 source bytes per token and hand-written ones ~2.3, so
// two tokens per three bytes holds a typical unit without regrowth.
func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)*2/3+1)
	line := 1
	i := 0
	emit := func(k tokenKind, text string) {
		toks = append(toks, token{kind: k, text: text, line: line})
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			emit(tokNewline, "\\n")
			line++
			i++
		case c == ';':
			emit(tokNewline, ";")
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == ',':
			emit(tokComma, ",")
			i++
		case c == '=':
			emit(tokAssign, "=")
			i++
		case c == '+':
			emit(tokPlus, "+")
			i++
		case c == '-':
			emit(tokMinus, "-")
			i++
		case c == '*':
			emit(tokStar, "*")
			i++
		case c == '/':
			emit(tokSlash, "/")
			i++
		case c == '(':
			emit(tokLParen, "(")
			i++
		case c == ')':
			emit(tokRParen, ")")
			i++
		case c == '[':
			emit(tokLBrack, "[")
			i++
		case c == ']':
			emit(tokRBrack, "]")
			i++
		case c == '{':
			emit(tokLBrace, "{")
			i++
		case c == '}':
			emit(tokRBrace, "}")
			i++
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.') {
				j++
			}
			emit(tokNumber, src[i:j])
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			word := src[i:j]
			if word == "loop" {
				emit(tokLoop, word)
			} else {
				emit(tokIdent, word)
			}
			i = j
		default:
			return nil, fmt.Errorf("frontend: line %d: unexpected character %q", line, string(c))
		}
	}
	emit(tokEOF, "")
	return toks, nil
}

// stripTrailing returns s without a trailing newline marker, for error
// messages.
func stripTrailing(s string) string { return strings.TrimSuffix(s, "\\n") }
