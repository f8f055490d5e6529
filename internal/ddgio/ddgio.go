// Package ddgio reads and writes data-dependence graphs in a small
// line-oriented text format, so loops from outside the synthetic suite
// (hand-written kernels, other compilers' dumps) can be fed to the
// tools:
//
//	# comment
//	loop dotproduct
//	node 0 load a[i]
//	node 1 load b[i]
//	node 2 fmul
//	node 3 fadd s
//	edge 0 2 0
//	edge 1 2 0
//	edge 2 3 0
//	edge 3 3 1
//	end
//
// A stream may contain any number of loops. Node IDs must be dense and
// declared in increasing order; the trailing name after the kind is
// optional and uninterpreted.
package ddgio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"clustersched/internal/ddg"
)

// NamedGraph pairs a loop with the name from its "loop" header.
type NamedGraph struct {
	Name  string
	Graph *ddg.Graph
}

// Read parses every loop in the stream. Each finished loop is
// validated; semantically broken graphs (e.g. zero-distance cycles)
// are rejected. Use ReadLax to load such graphs anyway, for tools —
// like clusterlint — that want to analyse broken inputs rather than
// refuse them.
func Read(r io.Reader) ([]NamedGraph, error) {
	return readAll(r, true)
}

// ReadLax parses every loop in the stream without validating the
// finished graphs. Syntactic errors (unknown directives, dangling
// node references, malformed numbers) are still reported; semantic
// ones (zero-distance cycles) are left for the caller to diagnose.
func ReadLax(r io.Reader) ([]NamedGraph, error) {
	return readAll(r, false)
}

// ReadString is Read over text already in memory, without copying
// it: the names of the loops and nodes it returns are substrings of
// text.
func ReadString(text string) ([]NamedGraph, error) {
	return parse(text, true, nil)
}

// maxLine caps one line of the text format.
const maxLine = 16 * 1024 * 1024

// readAll reads the whole stream and parses it. A read error is
// reported after every line read before it has been parsed, the last
// partial line included.
func readAll(r io.Reader, validate bool) ([]NamedGraph, error) {
	var b strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		b.Grow(l.Len())
	}
	_, err := io.Copy(&b, r)
	return parse(b.String(), validate, err)
}

// parse reads every loop of text in one pass over its bytes. Lines are
// split on '\n' and fields on Unicode white space, as strings.Fields
// splits them; a line of maxLine bytes or more fails the way
// bufio.Scanner's token cap does. readErr, when set, is the error that
// cut the text short, reported in place of an unclosed final loop.
func parse(text string, validate bool, readErr error) ([]NamedGraph, error) {
	var (
		out  []NamedGraph
		cur  *NamedGraph
		line int
		// budget bounds the graph capacity all loops together presize:
		// a node or edge line is at least 10 bytes ("node 0 alu"), so
		// valid text never runs out of it, and text full of lines that
		// fail to parse makes the reader allocate in proportion to it.
		budget = len(text) / 10
	)
	for pos := 0; pos < len(text); {
		l := text[pos:]
		if i := strings.IndexByte(l, '\n'); i >= 0 {
			l = l[:i]
		}
		pos += len(l) + 1
		line++
		if len(l) >= maxLine {
			return nil, fmt.Errorf("ddgio: %w", bufio.ErrTooLong)
		}
		f0, i := nextField(l, 0)
		if f0 == "" || f0[0] == '#' {
			continue
		}
		f1, i := nextField(l, i)
		switch f0 {
		case "loop":
			if cur != nil {
				return nil, fmt.Errorf("ddgio: line %d: loop %q not closed with end", line, cur.Name)
			}
			nodes, edges := sizeHint(text[min(pos, len(text)):], budget)
			budget -= nodes + edges
			out = append(out, NamedGraph{Name: f1, Graph: ddg.NewGraph(nodes, edges)})
			cur = &out[len(out)-1]
		case "node":
			if cur == nil {
				return nil, fmt.Errorf("ddgio: line %d: node outside loop", line)
			}
			f2, i := nextField(l, i)
			if f2 == "" {
				return nil, fmt.Errorf("ddgio: line %d: node needs id and kind", line)
			}
			id, err := strconv.Atoi(f1)
			if err != nil {
				return nil, fmt.Errorf("ddgio: line %d: bad node id %q", line, f1)
			}
			if id != cur.Graph.NumNodes() {
				return nil, fmt.Errorf("ddgio: line %d: node id %d out of order (want %d)", line, id, cur.Graph.NumNodes())
			}
			kind, ok := ddg.ParseOpKind(f2)
			if !ok {
				return nil, fmt.Errorf("ddgio: line %d: unknown kind %q", line, f2)
			}
			cur.Graph.AddNode(kind, joinFields(l[i:]))
		case "edge":
			if cur == nil {
				return nil, fmt.Errorf("ddgio: line %d: edge outside loop", line)
			}
			f2, i := nextField(l, i)
			f3, i := nextField(l, i)
			if f4, _ := nextField(l, i); f3 == "" || f4 != "" {
				return nil, fmt.Errorf("ddgio: line %d: edge needs from, to, distance", line)
			}
			var v [3]int
			for k, f := range [3]string{f1, f2, f3} {
				x, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("ddgio: line %d: bad integer %q", line, f)
				}
				v[k] = x
			}
			if v[0] < 0 || v[0] >= cur.Graph.NumNodes() || v[1] < 0 || v[1] >= cur.Graph.NumNodes() {
				return nil, fmt.Errorf("ddgio: line %d: edge references undeclared node", line)
			}
			if v[2] < 0 {
				return nil, fmt.Errorf("ddgio: line %d: negative distance", line)
			}
			cur.Graph.AddEdge(v[0], v[1], v[2])
		case "end":
			if cur == nil {
				return nil, fmt.Errorf("ddgio: line %d: end outside loop", line)
			}
			if validate {
				if err := cur.Graph.Validate(); err != nil {
					return nil, fmt.Errorf("ddgio: line %d: invalid loop %q: %w", line, cur.Name, err)
				}
			}
			cur = nil
		default:
			return nil, fmt.Errorf("ddgio: line %d: unknown directive %q", line, f0)
		}
	}
	if readErr != nil {
		return nil, fmt.Errorf("ddgio: %w", readErr)
	}
	if cur != nil {
		return nil, fmt.Errorf("ddgio: loop %q not closed with end", cur.Name)
	}
	return out, nil
}

// sizeHint counts the node and edge lines, at most budget of them, of
// the loop whose body starts at rest. It stops where parse ends the
// loop: at the first line whose first field is "end" or "loop".
func sizeHint(rest string, budget int) (nodes, edges int) {
	for rest != "" && nodes+edges < budget {
		l := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			l, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		switch f, _ := nextField(l, 0); f {
		case "node":
			nodes++
		case "edge":
			edges++
		case "end", "loop":
			return nodes, edges
		}
	}
	return nodes, edges
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField returns the first field of s[i:] by strings.Fields' rules
// and the index just past it, or "" when only white space is left.
func nextField(s string, i int) (string, int) {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if r, size := utf8.DecodeRuneInString(s[i:]); unicode.IsSpace(r) {
			i += size
		} else {
			break
		}
	}
	start := i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
		} else if r, size := utf8.DecodeRuneInString(s[i:]); !unicode.IsSpace(r) {
			i += size
		} else {
			break
		}
	}
	return s[start:i], i
}

// joinFields is strings.Join(strings.Fields(s), " "). When the fields
// of s are already one ASCII space apart, which is how Write renders a
// name, it is a substring of s and allocates nothing.
func joinFields(s string) string {
	first, end := nextField(s, 0)
	if first == "" {
		return ""
	}
	start := end - len(first)
	for {
		f, next := nextField(s, end)
		if f == "" {
			return s[start:end]
		}
		if next-len(f) != end+1 || s[end] != ' ' {
			return strings.Join(strings.Fields(s), " ")
		}
		end = next
	}
}

// Write renders one loop in the text format.
func Write(w io.Writer, name string, g *ddg.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "loop %s\n", name)
	for _, n := range g.Nodes {
		if n.Name != "" {
			fmt.Fprintf(bw, "node %d %s %s\n", n.ID, n.Kind, n.Name)
		} else {
			fmt.Fprintf(bw, "node %d %s\n", n.ID, n.Kind)
		}
	}
	for _, e := range g.Edges {
		fmt.Fprintf(bw, "edge %d %d %d\n", e.From, e.To, e.Distance)
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// WriteAll renders a whole suite, naming loops loop0, loop1, ...
func WriteAll(w io.Writer, loops []*ddg.Graph) error {
	for i, g := range loops {
		if err := Write(w, fmt.Sprintf("loop%d", i), g); err != nil {
			return err
		}
	}
	return nil
}
