package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
	"clustersched/internal/sched"
	"clustersched/internal/stats"
)

// facadeOptions are the pipeline options the clustersched facade and
// clusterd schedule with: the paper's heuristic iterative assignment,
// IMS, search counters on.
func facadeOptions() pipeline.Options {
	return pipeline.Options{
		Assign:       assign.Options{Variant: assign.HeuristicIterative},
		CollectStats: true,
	}
}

// inputOf is the scheduler input an outcome's schedule is checked and
// rendered against.
func inputOf(m *machine.Config, out *pipeline.Outcome) sched.Input {
	return sched.Input{
		Graph:       out.Assignment.Graph,
		Machine:     m,
		ClusterOf:   out.Assignment.ClusterOf,
		CopyTargets: out.Assignment.CopyTargets,
		II:          out.II,
	}
}

// unifiedIIs schedules every loop on m's equally wide unified machine,
// the paper's comparison baseline, the way internal/experiments does;
// 0 marks a loop the unified machine cannot schedule.
func unifiedIIs(loops []*ddg.Graph, m *machine.Config) []int {
	sess := pipeline.NewSession(m.Unified(), pipeline.Options{})
	iis := make([]int, len(loops))
	for i, g := range loops {
		if out, err := sess.Schedule(context.Background(), g); err == nil {
			iis[i] = out.II
		}
	}
	return iis
}

// quality accumulates the output-quality metrics over a set of loops.
type quality struct {
	hist                  stats.DeltaHist // clustered II minus unified II, as in the paper's figures
	scheduled             int
	ii, mii, copies, regs int
}

// add records one scheduled loop; unifiedII is its II on the unified
// machine, 0 when the unified machine could not schedule it.
func (q *quality) add(ii, mii, copies, regs, unifiedII int) {
	q.scheduled++
	q.ii += ii
	q.mii += mii
	q.copies += copies
	q.regs += regs
	if unifiedII > 0 {
		q.hist.Add(ii - unifiedII)
	} else {
		q.hist.AddFailure()
	}
}

// addFailure records a loop that could not be scheduled.
func (q *quality) addFailure() { q.hist.AddFailure() }

func (q *quality) merge(o quality) {
	for d := range q.hist.Buckets {
		q.hist.Buckets[d] += o.hist.Buckets[d]
	}
	q.hist.Failed += o.hist.Failed
	q.scheduled += o.scheduled
	q.ii += o.ii
	q.mii += o.mii
	q.copies += o.copies
	q.regs += o.regs
}

// endToEnd are the quality metrics a user of the generated code sees:
// the paper's match rate, the initiation intervals over their bound,
// and the copies and registers clustering costs per loop.
func (q quality) endToEnd() map[string]metric {
	note := fmt.Sprintf("%d loops", q.hist.Total())
	per := func(v int) float64 { return float64(v) / float64(q.scheduled) }
	return map[string]metric{
		"ii_match_pct":    {q.hist.MatchPercent(), note},
		"ii_over_mii":     {float64(q.ii) / float64(q.mii), note},
		"copies_per_loop": {per(q.copies), note},
		"regs_per_loop":   {per(q.regs), note},
	}
}

// selfPeakRSS is peak_rss_mib for the workloads that run in the
// benchmark process itself: its VmHWM less the calibration buffer,
// which is resident from before the first set-up to the end.
func selfPeakRSS() (metric, error) {
	v, err := vmHWM("self")
	probe := float64(probeBytes) / (1 << 20)
	return metric{v - probe, fmt.Sprintf("VmHWM of the benchmark process %.1f, less the %.0f MiB calibration buffer", v, probe)}, err
}

// vmHWM reads the peak resident set (VmHWM) of a process, in MiB, from
// its /proc status file ("self" for this process).
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("peak_rss_mib: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak_rss_mib: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak_rss_mib: %w", err)
	}
	return 0, fmt.Errorf("peak_rss_mib: no VmHWM line for process %s", pid)
}
