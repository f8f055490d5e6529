package ddg

import (
	"strings"
	"testing"
)

func TestOpKindString(t *testing.T) {
	cases := map[OpKind]string{
		OpALU:    "alu",
		OpShift:  "shift",
		OpBranch: "branch",
		OpLoad:   "load",
		OpStore:  "store",
		OpFAdd:   "fadd",
		OpFMul:   "fmul",
		OpFDiv:   "fdiv",
		OpFSqrt:  "fsqrt",
		OpCopy:   "copy",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("OpKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := OpKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("invalid kind should render its number, got %q", got)
	}
}

func TestParseOpKindRoundTrip(t *testing.T) {
	for k := 0; k < NumOpKinds; k++ {
		kind := OpKind(k)
		got, ok := ParseOpKind(kind.String())
		if !ok || got != kind {
			t.Errorf("ParseOpKind(%q) = %v, %v; want %v, true", kind.String(), got, ok, kind)
		}
	}
	if _, ok := ParseOpKind("bogus"); ok {
		t.Error("ParseOpKind(bogus) should fail")
	}
}

func TestAddNodeAssignsSequentialIDs(t *testing.T) {
	g := NewGraph(4, 4)
	for i := 0; i < 5; i++ {
		if id := g.AddNode(OpALU, ""); id != i {
			t.Fatalf("AddNode returned %d, want %d", id, i)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestAddEdgePanicsOnBadInput(t *testing.T) {
	g := NewGraph(2, 2)
	g.AddNode(OpALU, "")
	g.AddNode(OpALU, "")
	for _, tc := range []struct {
		name           string
		from, to, dist int
	}{
		{"bad from", 5, 0, 0},
		{"bad to", 0, 5, 0},
		{"negative from", -1, 0, 0},
		{"negative distance", 0, 1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			g.AddEdge(tc.from, tc.to, tc.dist)
		})
	}
}

func TestSuccessorsAndPredecessors(t *testing.T) {
	g := NewGraph(4, 4)
	a := g.AddNode(OpLoad, "a")
	b := g.AddNode(OpLoad, "b")
	c := g.AddNode(OpFMul, "c")
	d := g.AddNode(OpFAdd, "d")
	g.AddEdge(a, c, 0)
	g.AddEdge(b, c, 0)
	g.AddEdge(c, d, 0)
	g.AddEdge(a, d, 1)
	g.AddEdge(a, d, 2) // duplicate neighbour via second edge

	if got := g.Successors(a); len(got) != 2 || got[0] != c || got[1] != d {
		t.Errorf("Successors(a) = %v, want [%d %d]", got, c, d)
	}
	if got := g.Predecessors(d); len(got) != 2 || got[0] != a || got[1] != c {
		t.Errorf("Predecessors(d) = %v, want [%d %d]", got, a, c)
	}
	if got := g.Predecessors(a); len(got) != 0 {
		t.Errorf("Predecessors(a) = %v, want empty", got)
	}
	if got := g.OutEdges(a); len(got) != 3 {
		t.Errorf("OutEdges(a) has %d edges, want 3", len(got))
	}
	if got := g.InEdges(d); len(got) != 3 {
		t.Errorf("InEdges(d) has %d edges, want 3", len(got))
	}
}

func TestValidateAcceptsLoopCarriedCycle(t *testing.T) {
	g := NewGraph(3, 3)
	a := g.AddNode(OpALU, "")
	b := g.AddNode(OpALU, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, a, 1) // recurrence: legal
	if err := g.Validate(); err != nil {
		t.Errorf("Validate = %v, want nil", err)
	}
}

func TestValidateRejectsZeroDistanceCycle(t *testing.T) {
	g := NewGraph(3, 3)
	a := g.AddNode(OpALU, "")
	b := g.AddNode(OpALU, "")
	c := g.AddNode(OpALU, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	g.AddEdge(c, a, 0)
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a zero-distance cycle")
	}
}

func TestValidateRejectsZeroDistanceSelfLoop(t *testing.T) {
	g := NewGraph(1, 1)
	a := g.AddNode(OpALU, "")
	g.AddEdge(a, a, 0)
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a zero-distance self loop")
	}
}

func TestValidateAcceptsSelfRecurrence(t *testing.T) {
	g := NewGraph(1, 1)
	a := g.AddNode(OpFAdd, "acc")
	g.AddEdge(a, a, 1)
	if err := g.Validate(); err != nil {
		t.Errorf("Validate = %v, want nil", err)
	}
}

func TestValidateRejectsCorruptedNode(t *testing.T) {
	g := NewGraph(1, 1)
	g.AddNode(OpALU, "")
	g.Nodes[0].ID = 7
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted mismatched node ID")
	}
	g.Nodes[0].ID = 0
	g.Nodes[0].Kind = OpKind(42)
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted invalid kind")
	}
}

func TestKindCounts(t *testing.T) {
	g := NewGraph(4, 0)
	g.AddNode(OpLoad, "")
	g.AddNode(OpLoad, "")
	g.AddNode(OpStore, "")
	g.AddNode(OpBranch, "")
	counts := g.KindCounts()
	if counts[OpLoad] != 2 || counts[OpStore] != 1 || counts[OpBranch] != 1 || counts[OpALU] != 0 {
		t.Errorf("KindCounts = %v", counts)
	}
}

func TestStringMentionsEverything(t *testing.T) {
	g := NewGraph(2, 1)
	a := g.AddNode(OpLoad, "x")
	b := g.AddNode(OpStore, "")
	g.AddEdge(a, b, 2)
	s := g.String()
	for _, want := range []string{"2 nodes", "1 edges", "load", "store", "(x)", "dist=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
