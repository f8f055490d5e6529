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
	"math"
	"unicode"
)

// tokenKind enumerates lexical token classes.
type tokenKind uint8

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
	numTokenKinds
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

// token is one lexeme: its kind, the line it starts on, and its text
// as the byte range src[start:end]. It holds no pointer, so the token
// slab costs the garbage collector nothing to scan. A newline token
// has an empty range (it reads as nothing in error messages); the end
// of input sits at len(src).
type token struct {
	kind       tokenKind
	line       int32
	start, end int32
}

// Byte classes of the lexer, precomputed from the unicode predicates
// it applies to each source byte (as a rune: bytes 0x80-0xFF are
// Latin-1 code points, several of them letters).
const (
	classDigit      = 1 << iota // unicode.IsDigit
	classIdentStart             // unicode.IsLetter or '_'
)

var byteClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		if unicode.IsDigit(rune(c)) {
			t[c] |= classDigit
		}
		if unicode.IsLetter(rune(c)) || c == '_' {
			t[c] |= classIdentStart
		}
	}
	return t
}()

// punct maps every single-byte token to its kind; tokEOF marks bytes
// that start no such token.
var punct = func() (t [256]tokenKind) {
	kinds := [...]tokenKind{tokNewline, tokComma, tokAssign, tokPlus, tokMinus, tokStar,
		tokSlash, tokLParen, tokRParen, tokLBrack, tokRBrack, tokLBrace, tokRBrace}
	for i, k := range kinds {
		t[";,=+-*/()[]{}"[i]] = k
	}
	return t
}()

// tokenCounts tallies the tokens of each kind, which bound the sizes
// of the parser's slabs.
type tokenCounts [numTokenKinds]int

// lex tokenizes the whole source. '#' comments run to end of line;
// newlines and ';' are statement separators. Token offsets are int32,
// so a source must be shorter than 2 GiB.
//
// The token slab is presized from the source length: generated loops
// average ~1.6 source bytes per token and hand-written ones ~2.3, so
// two tokens per three bytes holds a typical unit without regrowth.
func lex(src string) ([]token, tokenCounts, error) {
	if len(src) >= math.MaxInt32 {
		return nil, tokenCounts{}, fmt.Errorf("frontend: source of %d bytes is too large", len(src))
	}
	toks := make([]token, 0, len(src)*2/3+1)
	var n tokenCounts
	line := int32(1)
	for i := 0; i < len(src); {
		c := src[i]
		switch c {
		case '\n':
			toks = append(toks, token{kind: tokNewline, line: line, start: int32(i), end: int32(i)})
			n[tokNewline]++
			line++
			i++
			continue
		case ' ', '\t', '\r':
			i++
			continue
		case '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		}
		k, j := punct[c], i+1
		switch {
		case k != tokEOF:
		case byteClass[c]&classDigit != 0:
			for j < len(src) && (byteClass[src[j]]&classDigit != 0 || src[j] == '.') {
				j++
			}
			k = tokNumber
		case byteClass[c]&classIdentStart != 0:
			for j < len(src) && byteClass[src[j]] != 0 {
				j++
			}
			k = tokIdent
			if src[i:j] == "loop" {
				k = tokLoop
			}
		default:
			return nil, tokenCounts{}, fmt.Errorf("frontend: line %d: unexpected character %q", line, string(c))
		}
		toks = append(toks, token{kind: k, line: line, start: int32(i), end: int32(j)})
		n[k]++
		i = j
	}
	end := int32(len(src))
	toks = append(toks, token{kind: tokEOF, line: line, start: end, end: end})
	return toks, n, nil
}
