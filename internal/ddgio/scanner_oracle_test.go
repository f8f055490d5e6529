package ddgio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"clustersched/internal/ddg"
)

// scanRead is the reference parser the one-pass reader replaced: a
// bufio.Scanner over lines and strings.Fields over each. The
// differential tests hold parse to it, error texts included.
func scanRead(r io.Reader, validate bool) ([]NamedGraph, error) {
	sc := bufio.NewScanner(r)
	// The line buffer starts no larger than the input when its length
	// is known (strings.Reader, bytes.Reader) and doubles only as long
	// lines demand, so a short loop never pays for the cap.
	size := 4096
	if l, ok := r.(interface{ Len() int }); ok && l.Len() < size {
		size = l.Len() + 1 // room for the read that sees EOF
	}
	sc.Buffer(make([]byte, 0, size), maxLine)
	var (
		out  []NamedGraph
		cur  *NamedGraph
		line int
	)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "loop":
			if cur != nil {
				return nil, fmt.Errorf("ddgio: line %d: loop %q not closed with end", line, cur.Name)
			}
			name := ""
			if len(fields) > 1 {
				name = fields[1]
			}
			cur = &NamedGraph{Name: name, Graph: ddg.NewGraph(16, 32)}
		case "node":
			if cur == nil {
				return nil, fmt.Errorf("ddgio: line %d: node outside loop", line)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("ddgio: line %d: node needs id and kind", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("ddgio: line %d: bad node id %q", line, fields[1])
			}
			if id != cur.Graph.NumNodes() {
				return nil, fmt.Errorf("ddgio: line %d: node id %d out of order (want %d)", line, id, cur.Graph.NumNodes())
			}
			kind, ok := ddg.ParseOpKind(fields[2])
			if !ok {
				return nil, fmt.Errorf("ddgio: line %d: unknown kind %q", line, fields[2])
			}
			name := ""
			if len(fields) > 3 {
				name = strings.Join(fields[3:], " ")
			}
			cur.Graph.AddNode(kind, name)
		case "edge":
			if cur == nil {
				return nil, fmt.Errorf("ddgio: line %d: edge outside loop", line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("ddgio: line %d: edge needs from, to, distance", line)
			}
			var v [3]int
			for i := 0; i < 3; i++ {
				x, err := strconv.Atoi(fields[i+1])
				if err != nil {
					return nil, fmt.Errorf("ddgio: line %d: bad integer %q", line, fields[i+1])
				}
				v[i] = x
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
			out = append(out, *cur)
			cur = nil
		default:
			return nil, fmt.Errorf("ddgio: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ddgio: %w", err)
	}
	if cur != nil {
		return nil, fmt.Errorf("ddgio: loop %q not closed with end", cur.Name)
	}
	return out, nil
}
