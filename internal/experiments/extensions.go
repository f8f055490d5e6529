package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/frontend"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
	"clustersched/internal/pool"
	"clustersched/internal/postpart"
	"clustersched/internal/regalloc"
	"clustersched/internal/sched"
	"clustersched/internal/stagesched"
	"clustersched/internal/verify"
)

// The experiments below go beyond the paper's evaluation: ablations of
// the design choices DESIGN.md calls out, the ring topology that
// generalizes the grid machine, and a register-pressure study backing
// the paper's "smaller register files" motivation. None has a paper
// reference number (PaperMatch -1).

// AblationIncomingPrediction isolates this implementation's one
// extension over the paper: mirroring the PCR/MRC copy prediction of
// Figure 10 line 6 onto the write-port (incoming) side.
func AblationIncomingPrediction() Config {
	full := assign.Options{Variant: assign.HeuristicIterative}
	noIncoming := assign.Options{Variant: assign.HeuristicIterative, DisableIncomingPrediction: true}
	return Config{
		ID:    "abl-incoming",
		Title: "Ablation: incoming-copy (write-port) prediction, 4 clusters x 4 GP, 4 buses, 2 ports",
		Rows: []Row{
			{Label: "with incoming prediction", Machine: machine.NewBusedGP(4, 4, 2), Assign: &full, PaperMatch: -1},
			{Label: "paper-literal (outgoing only)", Machine: machine.NewBusedGP(4, 4, 2), Assign: &noIncoming, PaperMatch: -1},
		},
	}
}

// AblationEviction compares the forced-placement victim policies of
// Section 4.3.1.
func AblationEviction() Config {
	newest := assign.Options{Variant: assign.HeuristicIterative}
	oldest := assign.Options{Variant: assign.HeuristicIterative, EvictOldest: true}
	return Config{
		ID:    "abl-evict",
		Title: "Ablation: eviction victim policy, 4 clusters x 4 GP, 4 buses, 2 ports",
		Rows: []Row{
			{Label: "evict newest assignment", Machine: machine.NewBusedGP(4, 4, 2), Assign: &newest, PaperMatch: -1},
			{Label: "evict oldest assignment", Machine: machine.NewBusedGP(4, 4, 2), Assign: &oldest, PaperMatch: -1},
		},
	}
}

// AblationOrdering quantifies Section 4.1: assigning critical SCCs
// first with the swing ordering versus plain node order. NOTE: run it
// through RunOrderingAblation, which shuffles node IDs first — the
// generator emits nodes in statement order, so unshuffled ID order is
// an artificially informed ordering.
func AblationOrdering() Config {
	swing := assign.Options{Variant: assign.HeuristicIterative}
	naive := assign.Options{Variant: assign.HeuristicIterative, NaiveOrdering: true}
	return Config{
		ID:    "abl-order",
		Title: "Ablation: SCC-first swing ordering vs naive order (shuffled IDs), 2 clusters x 4 GP, 2 buses, 1 port",
		Rows: []Row{
			{Label: "SCC-first swing order (paper)", Machine: machine.NewBusedGP(2, 2, 1), Assign: &swing, PaperMatch: -1},
			{Label: "naive node order", Machine: machine.NewBusedGP(2, 2, 1), Assign: &naive, PaperMatch: -1},
		},
	}
}

// RunOrderingAblation runs the node-ordering ablation on ID-shuffled
// copies of the loops, removing the statement-order information the
// generator bakes into node IDs.
func RunOrderingAblation(loops []*ddg.Graph, opts Options) Result {
	res, _ := RunOrderingAblationContext(context.Background(), loops, opts)
	return res
}

// RunOrderingAblationContext is RunOrderingAblation with cancellation.
func RunOrderingAblationContext(ctx context.Context, loops []*ddg.Graph, opts Options) (Result, error) {
	rng := rand.New(rand.NewSource(99))
	shuffled := make([]*ddg.Graph, len(loops))
	for i, g := range loops {
		shuffled[i] = loopgen.ShuffleIDs(g, rng)
	}
	return RunContext(ctx, AblationOrdering(), shuffled, opts)
}

// AblationScheduler compares phase-two engines on the same assignment
// algorithm: Rau's IMS versus the iterative swing modulo scheduler.
func AblationScheduler() Config {
	ims := pipeline.IMS
	sms := pipeline.SMS
	return Config{
		ID:    "abl-sched",
		Title: "Ablation: phase-two scheduler, 2 clusters x 4 GP, 2 buses, 1 port",
		Rows: []Row{
			{Label: "iterative modulo scheduler", Machine: machine.NewBusedGP(2, 2, 1), Variant: assign.HeuristicIterative, Scheduler: &ims, PaperMatch: -1},
			{Label: "swing modulo scheduler", Machine: machine.NewBusedGP(2, 2, 1), Variant: assign.HeuristicIterative, Scheduler: &sms, PaperMatch: -1},
		},
	}
}

// RingScaling extends the grid result: rings of 4, 6, and 8 clusters,
// where the maximum forwarding distance grows with the ring.
func RingScaling() Config {
	cfg := Config{
		ID:    "ring",
		Title: "Ring topology scaling (3 FS units per cluster, 2 ports, point-to-point)",
	}
	for _, n := range []int{4, 6, 8} {
		paper := -1.0
		if n == 4 {
			paper = 92 // the 4-ring is the paper's grid topology
		}
		cfg.Rows = append(cfg.Rows, Row{
			Label:      fmt.Sprintf("%d-cluster ring", n),
			Machine:    machine.NewRing(n, 2),
			Variant:    assign.HeuristicIterative,
			PaperMatch: paper,
		})
	}
	return cfg
}

// Extensions returns the beyond-the-paper experiments.
func Extensions() []Config {
	return []Config{
		AblationIncomingPrediction(),
		AblationEviction(),
		AblationOrdering(),
		AblationScheduler(),
		RingScaling(),
		NonPipelinedStudy(),
		CopyLatencyStudy(),
	}
}

// RegisterRow is one machine's register statistics over the suite.
type RegisterRow struct {
	Label string
	// Averages over scheduled loops.
	AvgMaxLive      float64 // peak simultaneously-live values
	AvgRegs         float64 // registers allocated by MVE allocation
	AvgRegsStaged   float64 // same, after stage scheduling
	AvgRegsRotating float64 // rotating-file total, after stage scheduling
	AvgMaxCluster   float64 // largest single register file needed (staged)
	AvgMVEFactor    float64
	ScheduledLoops  int
	StageMovedTotal int
}

// RegisterReport is the register-pressure study.
type RegisterReport struct {
	Rows  []RegisterRow
	Loops int
}

// RegisterStudy measures why clustering helps register files: for each
// machine it schedules the suite, allocates kernels with modulo
// variable expansion, and reports the average register demand before
// and after stage scheduling — machine-wide and for the largest single
// register file (the port-limited component a hardware designer cares
// about).
func RegisterStudy(loops []*ddg.Graph, opts Options) RegisterReport {
	rep, _ := RegisterStudyContext(context.Background(), loops, opts)
	return rep
}

// RegisterStudyContext is RegisterStudy with cancellation: it stops
// early — with the completed rows and ctx.Err() — when ctx is
// canceled.
func RegisterStudyContext(ctx context.Context, loops []*ddg.Graph, opts Options) (RegisterReport, error) {
	machines := []struct {
		label string
		m     *machine.Config
	}{
		{"unified 8-wide GP", machine.NewUnifiedGP(8)},
		{"2 clusters x 4 GP, 2 buses, 1 port", machine.NewBusedGP(2, 2, 1)},
		{"unified 16-wide GP", machine.NewUnifiedGP(16)},
		{"4 clusters x 4 GP, 4 buses, 2 ports", machine.NewBusedGP(4, 4, 2)},
	}
	rep := RegisterReport{Loops: len(loops)}
	for _, mc := range machines {
		row, err := registerRow(ctx, mc.label, mc.m, loops, opts)
		if err != nil {
			return rep, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func registerRow(ctx context.Context, label string, m *machine.Config, loops []*ddg.Graph, opts Options) (RegisterRow, error) {
	type sample struct {
		ok       bool
		maxLive  int
		regs     int
		regsOpt  int
		rotating int
		maxFile  int
		factor   int
		moved    int
	}
	samples := make([]sample, len(loops))
	err := pool.ForEach(ctx, len(loops), opts.Parallelism, func(i int) {
		out, err := pipeline.RunContext(ctx, loops[i], m, pipeline.Options{
			Assign:    assign.Options{Variant: assign.HeuristicIterative},
			Scheduler: opts.Scheduler,
		})
		if err != nil {
			return
		}
		in := schedInput(m, out)
		live, _ := verify.MaxLive(in, out.Schedule)
		before := regalloc.AllocateMVE(in, out.Schedule)
		moved := stagesched.Optimize(in, out.Schedule)
		after := regalloc.AllocateMVE(in, out.Schedule)
		rotating := regalloc.AllocateRotating(in, out.Schedule)
		maxFile := 0
		for _, r := range after.RegsPerCluster {
			if r > maxFile {
				maxFile = r
			}
		}
		samples[i] = sample{
			ok:       true,
			maxLive:  live,
			regs:     before.TotalRegisters(),
			regsOpt:  after.TotalRegisters(),
			rotating: rotating.TotalRegisters(),
			maxFile:  maxFile,
			factor:   after.Factor,
			moved:    moved,
		}
	})
	if err != nil {
		return RegisterRow{Label: label}, err
	}

	row := RegisterRow{Label: label}
	var live, regs, regsOpt, rotating, maxFile, factor int
	for _, s := range samples {
		if !s.ok {
			continue
		}
		row.ScheduledLoops++
		live += s.maxLive
		regs += s.regs
		regsOpt += s.regsOpt
		rotating += s.rotating
		maxFile += s.maxFile
		factor += s.factor
		row.StageMovedTotal += s.moved
	}
	if row.ScheduledLoops > 0 {
		n := float64(row.ScheduledLoops)
		row.AvgMaxLive = float64(live) / n
		row.AvgRegs = float64(regs) / n
		row.AvgRegsStaged = float64(regsOpt) / n
		row.AvgRegsRotating = float64(rotating) / n
		row.AvgMaxCluster = float64(maxFile) / n
		row.AvgMVEFactor = float64(factor) / n
	}
	return row, nil
}

func schedInput(m *machine.Config, out *pipeline.Outcome) sched.Input {
	return sched.Input{
		Graph:       out.Assignment.Graph,
		Machine:     m,
		ClusterOf:   out.Assignment.ClusterOf,
		CopyTargets: out.Assignment.CopyTargets,
		II:          out.II,
	}
}

// Report renders the register study as a table.
func (r RegisterReport) Report() string {
	s := fmt.Sprintf("register-pressure study (%d loops): MVE allocation, before/after stage scheduling\n", r.Loops)
	s += fmt.Sprintf("  %-38s %9s %9s %9s %9s %12s %8s\n",
		"machine", "MaxLive", "regs", "regs+SS", "rotating", "largest file", "MVE")
	for _, row := range r.Rows {
		s += fmt.Sprintf("  %-38s %9.1f %9.1f %9.1f %9.1f %12.1f %8.2f\n",
			row.Label, row.AvgMaxLive, row.AvgRegs, row.AvgRegsStaged, row.AvgRegsRotating,
			row.AvgMaxCluster, row.AvgMVEFactor)
	}
	return s
}

// BaselineComparison pits the paper's pre-scheduling cluster
// assignment against the post-scheduling partitioning baseline of
// Capitanio et al. (the related-work approach the paper argues cannot
// respect recurrences). Both rows report match-vs-unified histograms
// on the same machine.
//
//schedvet:test-api the post-partitioning comparison the root benchmark tests run
func BaselineComparison(loops []*ddg.Graph, opts Options) Result {
	res, _ := BaselineComparisonContext(context.Background(), loops, opts)
	return res
}

// BaselineComparisonContext is BaselineComparison with cancellation.
func BaselineComparisonContext(ctx context.Context, loops []*ddg.Graph, opts Options) (Result, error) {
	m := machine.NewBusedGP(2, 2, 1)
	res := Result{
		ID:    "baseline",
		Title: "Pre-scheduling assignment vs post-scheduling partitioning (Capitanio-style), 2 clusters x 4 GP, 2 buses, 1 port",
		Loops: len(loops),
	}
	unified := m.Unified()

	type outcome struct {
		preDelta, postDelta int
		preCopies           int
		postCopies          int
		preII, postII       int
		failed              bool
	}
	outcomes := make([]outcome, len(loops))
	err := pool.ForEach(ctx, len(loops), opts.Parallelism, func(i int) {
		g := loops[i]
		uo, uerr := pipeline.RunContext(ctx, g, unified, pipeline.Options{Scheduler: opts.Scheduler})
		pre, perr := pipeline.RunContext(ctx, g, m, pipeline.Options{
			Assign:    assign.Options{Variant: assign.HeuristicIterative},
			Scheduler: opts.Scheduler,
		})
		post, serr := postpart.Run(g, m)
		if uerr != nil || perr != nil || serr != nil {
			outcomes[i] = outcome{failed: true}
			return
		}
		outcomes[i] = outcome{
			preDelta:   pre.II - uo.II,
			postDelta:  post.II - uo.II,
			preCopies:  pre.Assignment.Copies,
			postCopies: post.Assignment.Copies,
			preII:      pre.II,
			postII:     post.II,
		}
	})
	if err != nil {
		return res, err
	}

	pre := RowResult{Label: "pre-scheduling assignment (paper)", PaperMatch: -1}
	post := RowResult{Label: "post-scheduling partitioning", PaperMatch: -1}
	var preCopies, postCopies, preII, postII, n int
	for _, o := range outcomes {
		if o.failed {
			pre.Hist.AddFailure()
			post.Hist.AddFailure()
			continue
		}
		n++
		pre.Hist.Add(o.preDelta)
		post.Hist.Add(o.postDelta)
		preCopies += o.preCopies
		postCopies += o.postCopies
		preII += o.preII
		postII += o.postII
	}
	if n > 0 {
		pre.AvgCopies = float64(preCopies) / float64(n)
		post.AvgCopies = float64(postCopies) / float64(n)
		pre.AvgII = float64(preII) / float64(n)
		post.AvgII = float64(postII) / float64(n)
	}
	res.Rows = []RowResult{pre, post}
	return res, nil
}

// NonPipelinedStudy compares fully pipelined function units against
// machines whose FP divide and square root hold their unit for the
// whole latency (as on most real VLIWs, including the Cydra 5 the
// suite was compiled for). Both rows compare against their own
// equally-constrained unified machine, isolating the clustering cost.
func NonPipelinedStudy() Config {
	pipelined := machine.NewBusedGP(2, 2, 1)
	nonPiped := machine.NewBusedGP(2, 2, 1)
	nonPiped.Name = "gp-2c-2b-1p-npdiv"
	nonPiped.NonPipelined[ddg.OpFDiv] = true
	nonPiped.NonPipelined[ddg.OpFSqrt] = true
	return Config{
		ID:    "nonpipelined",
		Title: "Non-pipelined FP divide/sqrt, 2 clusters x 4 GP, 2 buses, 1 port",
		Rows: []Row{
			{Label: "fully pipelined units", Machine: pipelined, Variant: assign.HeuristicIterative, PaperMatch: -1},
			{Label: "non-pipelined fdiv/fsqrt", Machine: nonPiped, Variant: assign.HeuristicIterative, PaperMatch: -1},
		},
	}
}

// CopyLatencyStudy varies the inter-cluster copy latency — the paper
// targets "explicit, non-zero latency communication" and hides one
// cycle; this measures how much headroom the hiding has as wires get
// slower.
func CopyLatencyStudy() Config {
	cfg := Config{
		ID:    "copylatency",
		Title: "Copy latency sweep, 4 clusters x 4 GP, 4 buses, 2 ports",
	}
	for _, lat := range []int{1, 2, 4} {
		m := machine.NewBusedGP(4, 4, 2)
		m.Name = fmt.Sprintf("gp-4c-4b-2p-cl%d", lat)
		m.Latencies[ddg.OpCopy] = lat
		paper := -1.0
		if lat == 1 {
			paper = 97.5 // the paper's Figure 13 point
		}
		cfg.Rows = append(cfg.Rows, Row{
			Label:      fmt.Sprintf("copy latency %d", lat),
			Machine:    m,
			Variant:    assign.HeuristicIterative,
			PaperMatch: paper,
		})
	}
	return cfg
}

// LivermoreRow is one kernel's result in the Livermore study.
type LivermoreRow struct {
	Name       string
	Ops        int
	MII        int // on the 8-wide GP unified machine
	Unified    int
	PerMachine []int // clustered IIs, aligned with LivermoreMachines
	OwnUnified []int // each machine's equally wide unified II
}

// LivermoreReport is the per-kernel real-benchmark study.
type LivermoreReport struct {
	Machines []*machine.Config
	Rows     []LivermoreRow
}

// LivermoreMachines are the configurations the kernel study runs on.
func LivermoreMachines() []*machine.Config {
	return []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedGP(4, 4, 2),
		machine.NewBusedFS(2, 2, 1),
		machine.NewGrid4(2),
	}
}

// LivermoreStudyContext schedules the real Livermore kernels on the
// paper's machines and tabulates per-kernel initiation intervals
// against the 8-wide unified baseline. The study is sequential (a
// handful of kernels); cancellation takes effect between pipeline runs
// and mid-search inside each run.
func LivermoreStudyContext(ctx context.Context, loops []frontend.Loop, opts Options) (LivermoreReport, error) {
	rep := LivermoreReport{Machines: LivermoreMachines()}
	unified := machine.NewUnifiedGP(8)
	for _, l := range loops {
		row := LivermoreRow{Name: l.Name, Ops: l.Graph.NumNodes()}
		uo, err := pipeline.RunContext(ctx, l.Graph, unified, pipeline.Options{Scheduler: opts.Scheduler})
		if err != nil {
			return rep, fmt.Errorf("livermore %s unified: %w", l.Name, err)
		}
		row.MII = uo.MII
		row.Unified = uo.II
		for _, m := range rep.Machines {
			co, err := pipeline.RunContext(ctx, l.Graph, m, pipeline.Options{
				Assign:    assign.Options{Variant: assign.HeuristicIterative},
				Scheduler: opts.Scheduler,
			})
			if err != nil {
				return rep, fmt.Errorf("livermore %s on %s: %w", l.Name, m.Name, err)
			}
			ou, err := pipeline.RunContext(ctx, l.Graph, m.Unified(), pipeline.Options{Scheduler: opts.Scheduler})
			if err != nil {
				return rep, fmt.Errorf("livermore %s on unified %s: %w", l.Name, m.Name, err)
			}
			row.PerMachine = append(row.PerMachine, co.II)
			row.OwnUnified = append(row.OwnUnified, ou.II)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Report renders the kernel study.
func (r LivermoreReport) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Livermore kernels: initiation intervals (unified 8-wide baseline)\n")
	fmt.Fprintf(&b, "  %-18s %4s %4s %8s", "kernel", "ops", "MII", "unified")
	for _, m := range r.Machines {
		fmt.Fprintf(&b, " %14s", m.Name)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-18s %4d %4d %8d", row.Name, row.Ops, row.MII, row.Unified)
		for i, ii := range row.PerMachine {
			marker := ""
			if ii > row.OwnUnified[i] {
				marker = "*"
			}
			fmt.Fprintf(&b, " %13d%1s", ii, marker)
		}
		b.WriteByte('\n')
	}
	b.WriteString("  (* = above the machine's own equally wide unified baseline)\n")
	return b.String()
}
