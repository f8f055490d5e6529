package verify

import (
	"math/rand"
	"strings"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
	"clustersched/internal/sched"
)

// scheduledLoop assigns and schedules one suite loop on the machine,
// escalating II until both phases succeed.
func scheduledLoop(t *testing.T, seed int64, m *machine.Config) (sched.Input, *sched.Schedule) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := loopgen.Loop(rng)
	base := mii.MII(g, m)
	for ii := base; ii < base+32; ii++ {
		res, ok := assign.Run(g, m, ii, assign.Options{Variant: assign.HeuristicIterative})
		if !ok {
			continue
		}
		in := sched.Input{
			Graph:       res.Graph,
			Machine:     m,
			ClusterOf:   res.ClusterOf,
			CopyTargets: res.CopyTargets,
			II:          ii,
		}
		if s, ok := sched.IMS(in); ok {
			return in, s
		}
	}
	t.Fatal("no schedule found for test fixture")
	return sched.Input{}, nil
}

func TestValidSchedulesPass(t *testing.T) {
	for _, m := range []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedFS(4, 4, 2),
		machine.NewGrid4(2),
	} {
		for seed := int64(1); seed <= 25; seed++ {
			in, s := scheduledLoop(t, seed, m)
			if err := Schedule(in, s); err != nil {
				t.Errorf("%s seed %d: valid schedule rejected: %v", m.Name, seed, err)
			}
		}
	}
}

func TestDetectsDependenceViolation(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1)
	in, s := scheduledLoop(t, 2, m)
	// Find an edge and break it by moving the consumer too early.
	for _, e := range in.Graph.Edges {
		if e.From == e.To {
			continue
		}
		bad := append([]int(nil), s.CycleOf...)
		bad[e.To] = s.CycleOf[e.From] + in.Machine.Latency(in.Graph.Nodes[e.From].Kind) - in.II*e.Distance - 1
		broken := &sched.Schedule{II: s.II, CycleOf: bad}
		if err := Schedule(in, broken); err == nil {
			t.Fatal("dependence violation not detected")
		} else if !strings.Contains(err.Error(), "violated") {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
}

func TestDetectsResourceOversubscription(t *testing.T) {
	// Five ALU ops on a single 4-wide cluster all at cycle 0.
	g := ddg.NewGraph(5, 0)
	for i := 0; i < 5; i++ {
		g.AddNode(ddg.OpALU, "")
	}
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 1}
	s := &sched.Schedule{II: 1, CycleOf: []int{0, 0, 0, 0, 0}}
	if err := Schedule(in, s); err == nil || !strings.Contains(err.Error(), "oversubscribes") {
		t.Errorf("oversubscription not detected: %v", err)
	}
	// Staggering the fifth op into another stage does not help at II=1
	// (modulo aliasing)...
	s2 := &sched.Schedule{II: 1, CycleOf: []int{0, 0, 0, 0, 7}}
	if err := Schedule(in, s2); err == nil {
		t.Error("modulo-aliased oversubscription not detected")
	}
	// ...but II=2 separates slots.
	in2 := sched.Input{Graph: g, Machine: m, II: 2}
	s3 := &sched.Schedule{II: 2, CycleOf: []int{0, 0, 0, 0, 1}}
	if err := Schedule(in2, s3); err != nil {
		t.Errorf("valid staggered schedule rejected: %v", err)
	}
}

func TestDetectsMissingCopy(t *testing.T) {
	// Producer on cluster 0, consumer on cluster 1, no copy node.
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpALU, "")
	g.AddEdge(a, b, 0)
	m := machine.NewBusedGP(2, 2, 1)
	in := sched.Input{
		Graph:     g,
		Machine:   m,
		ClusterOf: []int{0, 1},
		II:        1,
	}
	s := &sched.Schedule{II: 1, CycleOf: []int{0, 1}}
	if err := Schedule(in, s); err == nil || !strings.Contains(err.Error(), "without a copy") {
		t.Errorf("missing copy not detected: %v", err)
	}
}

func TestDetectsWrongII(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1)
	in, s := scheduledLoop(t, 3, m)
	broken := &sched.Schedule{II: s.II + 1, CycleOf: s.CycleOf}
	if err := Schedule(in, broken); err == nil {
		t.Error("II mismatch not detected")
	}
}

func TestDetectsBadCopyTargets(t *testing.T) {
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	k := g.AddNode(ddg.OpCopy, "")
	g.AddEdge(a, k, 0)
	m := machine.NewBusedGP(2, 2, 1)

	// Copy with no targets.
	in := sched.Input{Graph: g, Machine: m, ClusterOf: []int{0, 0}, CopyTargets: [][]int{nil, {}}, II: 2}
	s := &sched.Schedule{II: 2, CycleOf: []int{0, 1}}
	if err := Schedule(in, s); err == nil || !strings.Contains(err.Error(), "no targets") {
		t.Errorf("empty copy targets not detected: %v", err)
	}
	// Copy targeting its own cluster.
	in.CopyTargets = [][]int{nil, {0}}
	if err := Schedule(in, s); err == nil || !strings.Contains(err.Error(), "own cluster") {
		t.Errorf("self-target not detected: %v", err)
	}
}

func TestMaxLiveSimpleChain(t *testing.T) {
	// load(2) -> alu(1) -> store at II=1: the load's value is live from
	// cycle 2 to its use at 2 (clamped to 1 cycle); the alu result from
	// 3 to 3 (clamped). With II=1 every live cycle lands in slot 0.
	g := ddg.NewGraph(3, 2)
	a := g.AddNode(ddg.OpLoad, "")
	b := g.AddNode(ddg.OpALU, "")
	c := g.AddNode(ddg.OpStore, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 1}
	s := &sched.Schedule{II: 1, CycleOf: []int{0, 2, 3}}
	total, perCluster := MaxLive(in, s)
	if total != 2 {
		t.Errorf("MaxLive = %d, want 2", total)
	}
	if len(perCluster) != 1 || perCluster[0] != 2 {
		t.Errorf("perCluster = %v, want [2]", perCluster)
	}
}

func TestMaxLiveLongLatency(t *testing.T) {
	// fdiv (9 cycles) feeding a consumer 9 cycles later at II=3: the
	// result is live 1 cycle; but a value held across iterations
	// (distance use) stretches the lifetime by II per iteration.
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpStore, "") // stores produce no register value
	g.AddEdge(a, b, 2)              // consumed two iterations later
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 2}
	s := &sched.Schedule{II: 2, CycleOf: []int{0, 1}}
	// Value defined at 1, last use at 1 + 2*2 = 5: live 4 cycles over
	// II=2 -> two instances live at once in each slot.
	total, _ := MaxLive(in, s)
	if total != 2 {
		t.Errorf("MaxLive = %d, want 2 (overlapped lifetimes)", total)
	}
}

func TestMaxLiveSkipsStoresAndBranches(t *testing.T) {
	g := ddg.NewGraph(2, 0)
	g.AddNode(ddg.OpStore, "")
	g.AddNode(ddg.OpBranch, "")
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 1}
	s := &sched.Schedule{II: 1, CycleOf: []int{0, 0}}
	if total, _ := MaxLive(in, s); total != 0 {
		t.Errorf("MaxLive = %d, want 0 (no register results)", total)
	}
}

func TestDetectsBadClusterAnnotation(t *testing.T) {
	g := ddg.NewGraph(1, 0)
	g.AddNode(ddg.OpALU, "")
	m := machine.NewBusedGP(2, 2, 1)
	in := sched.Input{Graph: g, Machine: m, ClusterOf: []int{7}, II: 1}
	s := &sched.Schedule{II: 1, CycleOf: []int{0}}
	if err := Schedule(in, s); err == nil || !strings.Contains(err.Error(), "invalid cluster") {
		t.Errorf("bad cluster annotation not detected: %v", err)
	}
}

func TestDetectsCycleCountMismatch(t *testing.T) {
	g := ddg.NewGraph(2, 0)
	g.AddNode(ddg.OpALU, "")
	g.AddNode(ddg.OpALU, "")
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 1}
	s := &sched.Schedule{II: 1, CycleOf: []int{0}}
	if err := Schedule(in, s); err == nil || !strings.Contains(err.Error(), "cycles for") {
		t.Errorf("length mismatch not detected: %v", err)
	}
}

func TestDetectsOpOnIncapableCluster(t *testing.T) {
	// A load annotated onto a cluster with no memory/GP unit.
	g := ddg.NewGraph(1, 0)
	g.AddNode(ddg.OpLoad, "")
	m := &machine.Config{
		Name:    "intonly",
		Network: machine.Broadcast,
		Buses:   1,
		Clusters: []machine.Cluster{
			{FUs: []machine.FUClass{machine.FUInteger}, ReadPorts: 1, WritePorts: 1},
			machine.GPCluster(2, 1, 1),
		},
		Latencies: machine.DefaultLatencies(),
	}
	in := sched.Input{Graph: g, Machine: m, ClusterOf: []int{0}, II: 1}
	s := &sched.Schedule{II: 1, CycleOf: []int{0}}
	if err := Schedule(in, s); err == nil || !strings.Contains(err.Error(), "no capable unit") {
		t.Errorf("incapable cluster not detected: %v", err)
	}
}

func TestDetectsCopyToInvalidCluster(t *testing.T) {
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	k := g.AddNode(ddg.OpCopy, "")
	g.AddEdge(a, k, 0)
	m := machine.NewBusedGP(2, 2, 1)
	in := sched.Input{
		Graph: g, Machine: m,
		ClusterOf:   []int{0, 0},
		CopyTargets: [][]int{nil, {9}},
		II:          2,
	}
	s := &sched.Schedule{II: 2, CycleOf: []int{0, 1}}
	if err := Schedule(in, s); err == nil || !strings.Contains(err.Error(), "invalid cluster") {
		t.Errorf("bad copy target not detected: %v", err)
	}
}
