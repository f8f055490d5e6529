package pipeline_test

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/compile"
	"clustersched/internal/ddg"
	"clustersched/internal/emit"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
	"clustersched/internal/regalloc"
	"clustersched/internal/sched"
)

var update = flag.Bool("update", false, "rewrite "+identityFile+" from the current code")

// identityFile pins every headline schedule: one row per (loop,
// machine) with II, MII, copies and a 64-bit FNV-1a hash of the
// placement, the cycles, the copy targets, the annotated edges, the
// MVE allocation and the emitted kernel text.
const identityFile = "testdata/identity.txt"

type identityLoop struct {
	name string
	g    *ddg.Graph
}

// identityLoops are the seed-1 paper suite and the compile regression
// corpus, which opens with the Livermore kernels.
func identityLoops(t *testing.T) []identityLoop {
	t.Helper()
	var loops []identityLoop
	for i, g := range loopgen.Suite(loopgen.Options{Seed: 1}) {
		loops = append(loops, identityLoop{fmt.Sprintf("suite/%04d", i), g})
	}
	corpus, err := compile.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range corpus {
		loops = append(loops, identityLoop{"corpus/" + l.Name, l.Graph})
	}
	return loops
}

// identityMachines are the four headline machines of EXPERIMENTS.md.
func identityMachines() []*machine.Config {
	return []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedFS(4, 4, 2),
		machine.NewBusedGP(4, 4, 2),
		machine.NewGrid4(2),
	}
}

// identityRows schedules every loop on every machine through RunBatch
// with the facade's options and renders one row per pair, keyed by
// "loop machine".
func identityRows(loops []identityLoop, workers int) []string {
	graphs := make([]*ddg.Graph, len(loops))
	for i, l := range loops {
		graphs[i] = l.g
	}
	opts := pipeline.Options{Assign: assign.Options{Variant: assign.HeuristicIterative}}
	var rows []string
	for _, m := range identityMachines() {
		for i, r := range pipeline.RunBatch(context.Background(), graphs, m, opts, workers) {
			key := loops[i].name + " " + m.Name
			if r.Err != nil {
				rows = append(rows, key+" failed")
				continue
			}
			o := r.Outcome
			rows = append(rows, fmt.Sprintf("%s ii=%d mii=%d copies=%d hash=%016x",
				key, o.II, o.MII, o.Assignment.Copies, identityHash(m, o)))
		}
	}
	return rows
}

func identityHash(m *machine.Config, o *pipeline.Outcome) uint64 {
	var b []byte
	put := func(v int) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	ints := func(vs []int) {
		put(len(vs))
		for _, v := range vs {
			put(v)
		}
	}
	a := o.Assignment
	ints(a.ClusterOf)
	ints(o.Schedule.CycleOf)
	put(len(a.CopyTargets))
	for _, ts := range a.CopyTargets {
		ints(ts)
	}
	put(len(a.Graph.Edges))
	for _, e := range a.Graph.Edges {
		put(e.From)
		put(e.To)
		put(e.Distance)
	}
	in := sched.Input{Graph: a.Graph, Machine: m, ClusterOf: a.ClusterOf, CopyTargets: a.CopyTargets, II: o.II}
	alloc := regalloc.AllocateMVE(in, o.Schedule)
	put(alloc.Factor)
	ints(alloc.RegsPerCluster)
	put(len(alloc.Bindings))
	for _, x := range alloc.Bindings {
		for _, v := range []int{x.Value, x.Cluster, x.Start, x.Len, x.Instance, x.Register} {
			put(v)
		}
	}
	b = append(b, emit.Kernel(in, o.Schedule)...)
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestIdentityDigest rebuilds the identity table at one and two
// workers and requires both to equal the committed one, so a change
// that moves any headline schedule, allocation or kernel fails here
// and names the loops it moved. An intended change regenerates the
// table with
//
//	go test ./internal/pipeline -run TestIdentityDigest -update
func TestIdentityDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules the paper suite and the corpus on four machines twice")
	}
	loops := identityLoops(t)
	for _, workers := range []int{1, 2} {
		rows := identityRows(loops, workers)
		got := strings.Join(rows, "\n") + "\n"
		if *update && workers == 1 {
			if err := os.WriteFile(identityFile, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(identityFile)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("workers=%d: %s", workers, identityDiff(rows, strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")))
		}
	}
}

// identityDiff names the (loop, machine) pairs whose rows differ.
func identityDiff(got, want []string) string {
	key := func(row string) string {
		f := strings.Fields(row)
		return f[0] + " " + f[1]
	}
	wantBy := make(map[string]string, len(want))
	for _, r := range want {
		wantBy[key(r)] = r
	}
	var moved []string
	for _, r := range got {
		k := key(r)
		if w, ok := wantBy[k]; !ok {
			moved = append(moved, "new row "+r)
		} else if w != r {
			moved = append(moved, fmt.Sprintf("%s: %s, want %s", k, strings.TrimPrefix(r, k+" "), strings.TrimPrefix(w, k+" ")))
		}
		delete(wantBy, k)
	}
	if len(wantBy) > 0 || len(got) != len(want) {
		moved = append(moved, fmt.Sprintf("row count %d, want %d", len(got), len(want)))
	}
	const show = 40
	n := len(moved)
	if n > show {
		moved = append(moved[:show], fmt.Sprintf("... and %d more", n-show))
	}
	return fmt.Sprintf("%d rows moved from %s:\n  %s", n, identityFile, strings.Join(moved, "\n  "))
}
