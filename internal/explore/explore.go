// Package explore quantifies the hardware trade the paper motivates:
// it sweeps machine configurations, measures delivered throughput
// (initiation intervals versus the equally wide unified machine) over
// the loop suite, and scores each design with the register-file cost
// models of Section 1.1 — area growing linearly with registers and
// quadratically with ports, cycle time growing with the logarithm of
// registers times read ports. The result is the quantified version of
// the paper's claim: clustering keeps the II while shrinking the
// register-file structures that set the clock.
package explore

import (
	"context"
	"fmt"
	"math"
	"strings"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
	"clustersched/internal/pool"
	"clustersched/internal/regalloc"
	"clustersched/internal/sched"
	"clustersched/internal/stagesched"
)

// Point is one evaluated design.
type Point struct {
	Machine *machine.Config
	// MatchPct is the fraction of loops whose II equals the unified
	// machine's (100 for unified machines themselves).
	MatchPct float64
	// AvgII is the mean achieved initiation interval.
	AvgII float64
	// AvgRegsLargestFile is the mean size of the design's biggest
	// register file (after stage scheduling and MVE allocation).
	AvgRegsLargestFile float64
	// PortsLargestFile counts the ports of one cluster's register
	// file: two reads and one write per function unit, plus the bus
	// read/write ports.
	PortsLargestFile int
	// ReadPortsLargestFile is the read-port share, the cycle-time term.
	ReadPortsLargestFile int
	// AreaProxy is sum over clusters of regs * ports^2 (Section 1.1's
	// quadratic port growth), using the measured average register
	// counts.
	AreaProxy float64
	// DelayProxy is log2(regs * read ports) of the largest file
	// (Section 1.1 cites cycle time logarithmic in registers and read
	// ports).
	DelayProxy float64
	// Scheduled is how many loops produced schedules.
	Scheduled int
}

// filePorts returns the port counts of cluster c's register file.
func filePorts(m *machine.Config, c int) (total, reads int) {
	cl := &m.Clusters[c]
	reads = 2*len(cl.FUs) + cl.ReadPorts
	writes := len(cl.FUs) + cl.WritePorts
	return reads + writes, reads
}

// EvaluateContext measures one machine over the loops on a bounded
// worker pool, stopping early — with a partial Point and ctx.Err() —
// when ctx is canceled.
func EvaluateContext(ctx context.Context, m *machine.Config, loops []*ddg.Graph, workers int) (Point, error) {
	unified := m.Unified()
	type sample struct {
		ok      bool
		match   bool
		ii      int
		perFile []int
	}
	samples := make([]sample, len(loops))
	err := pool.ForEach(ctx, len(loops), workers, func(i int) {
		g := loops[i]
		uo, uerr := pipeline.RunContext(ctx, g, unified, pipeline.Options{})
		co, cerr := pipeline.RunContext(ctx, g, m, pipeline.Options{
			Assign: assign.Options{Variant: assign.HeuristicIterative},
		})
		if uerr != nil || cerr != nil {
			return
		}
		in := sched.Input{
			Graph:       co.Assignment.Graph,
			Machine:     m,
			ClusterOf:   co.Assignment.ClusterOf,
			CopyTargets: co.Assignment.CopyTargets,
			II:          co.II,
		}
		stagesched.Optimize(in, co.Schedule)
		alloc := regalloc.AllocateMVE(in, co.Schedule)
		samples[i] = sample{
			ok:      true,
			match:   co.II <= uo.II,
			ii:      co.II,
			perFile: alloc.RegsPerCluster,
		}
	})

	p := Point{Machine: m}
	avgPerFile := make([]float64, m.NumClusters())
	matches, iiSum := 0, 0
	var largest float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		p.Scheduled++
		if s.match {
			matches++
		}
		iiSum += s.ii
		big := 0
		for c, r := range s.perFile {
			avgPerFile[c] += float64(r)
			if r > big {
				big = r
			}
		}
		largest += float64(big)
	}
	if p.Scheduled == 0 {
		return p, err
	}
	n := float64(p.Scheduled)
	p.MatchPct = 100 * float64(matches) / n
	p.AvgII = float64(iiSum) / n
	p.AvgRegsLargestFile = largest / n

	// Cost models on the measured average register counts, with a
	// small floor so degenerate (near-empty) files do not zero out.
	maxDelay := 0.0
	for c := range m.Clusters {
		regs := math.Max(avgPerFile[c]/n, 1)
		ports, reads := filePorts(m, c)
		p.AreaProxy += regs * float64(ports) * float64(ports)
		if d := math.Log2(math.Max(regs*float64(reads), 2)); d > maxDelay {
			maxDelay = d
		}
		if c == 0 || ports > p.PortsLargestFile {
			p.PortsLargestFile = ports
			p.ReadPortsLargestFile = reads
		}
	}
	p.DelayProxy = maxDelay
	return p, err
}

// Sweep evaluates several machines; it is SweepContext under
// context.Background().
//
//schedvet:test-api the design-space sweep the root benchmark tests run
func Sweep(machines []*machine.Config, loops []*ddg.Graph, workers int) []Point {
	out, _ := SweepContext(context.Background(), machines, loops, workers)
	return out
}

// SweepContext evaluates several machines, stopping early — with the
// points measured so far and ctx.Err() — when ctx is canceled.
func SweepContext(ctx context.Context, machines []*machine.Config, loops []*ddg.Graph, workers int) ([]Point, error) {
	out := make([]Point, len(machines))
	for i, m := range machines {
		p, err := EvaluateContext(ctx, m, loops, workers)
		out[i] = p
		if err != nil {
			return out[:i+1], err
		}
	}
	return out, nil
}

// DefaultDesigns returns the paper-relevant corner of the design
// space: unified machines of width 8 and 16 against their clustered
// peers at the Table 3 bus/port sweet spots.
func DefaultDesigns() []*machine.Config {
	return []*machine.Config{
		machine.NewUnifiedGP(8),
		machine.NewBusedGP(2, 2, 1),
		machine.NewUnifiedGP(16),
		machine.NewBusedGP(4, 4, 2),
		machine.NewBusedGP(8, 7, 3),
	}
}

// Report renders the sweep as a table.
func Report(points []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %7s %7s %10s %7s %7s %10s %7s\n",
		"design", "match%", "avg II", "regs/file", "ports", "reads", "area", "delay")
	for _, p := range points {
		fmt.Fprintf(&b, "%-22s %7.1f %7.2f %10.1f %7d %7d %10.0f %7.2f\n",
			p.Machine.Name, p.MatchPct, p.AvgII, p.AvgRegsLargestFile,
			p.PortsLargestFile, p.ReadPortsLargestFile, p.AreaProxy, p.DelayProxy)
	}
	return b.String()
}
