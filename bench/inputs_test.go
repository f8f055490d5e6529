package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"clustersched/internal/compile"
	"clustersched/internal/ddg"
	"clustersched/internal/ddgio"
	"clustersched/internal/frontend"
)

// inputsOf renders every input a workload generates from seed: the
// suite-sched operation order, the corpus unit, and the serve-cold and
// serve-hot request sequences. The loops of the suite-based workloads
// are the paper's suite on every seed.
func inputsOf(t *testing.T, seed int64) map[string]string {
	t.Helper()
	requests := func(s *serveInst) string {
		var b strings.Builder
		for i := 0; i < 2000; i++ {
			name, loop, hit := s.request(i)
			fmt.Fprintf(&b, "%s %d %v\n", name, loop, hit)
		}
		return b.String()
	}
	return map[string]string{
		"suite-sched": fmt.Sprint(opOrder(seed, 3*200)),
		"corpus":      corpusSource(seed),
		"serve-cold":  requests(&serveInst{order: opOrder(seed, 200)}),
		"serve-hot":   requests(&serveInst{hot: true, seed: uint64(seed), loops: make([]*ddg.Graph, 200)}),
	}
}

// TestInputsDeterministic checks that a seed fixes every generated
// input byte for byte and that another seed changes each of them.
func TestInputsDeterministic(t *testing.T) {
	a, again, b := inputsOf(t, 1), inputsOf(t, 1), inputsOf(t, 2)
	for name := range a {
		if a[name] != again[name] {
			t.Errorf("%s: seed 1 generated different bytes on a second call", name)
		}
		if a[name] == b[name] {
			t.Errorf("%s: seeds 1 and 2 generated the same bytes", name)
		}
	}
}

// TestServeHotMix checks serve-hot's request mix: about one request in
// ten is a fresh miss, and the repeats cover the warm set.
func TestServeHotMix(t *testing.T) {
	s := &serveInst{hot: true, seed: 7, loops: make([]*ddg.Graph, 100)}
	misses, seen := 0, make(map[int]bool)
	const n = 20000
	for i := 0; i < n; i++ {
		_, loop, hit := s.request(i)
		if !hit {
			misses++
		} else {
			seen[loop] = true
		}
	}
	if frac := float64(misses) / n; frac < 0.09 || frac > 0.11 {
		t.Errorf("miss share %.3f, want about 0.10", frac)
	}
	if len(seen) != 100 {
		t.Errorf("repeats touched %d of 100 warm loops", len(seen))
	}
	cold := &serveInst{order: opOrder(7, 100)}
	a, la, _ := cold.request(3)
	b, lb, _ := cold.request(103)
	if la != lb || a == b {
		t.Errorf("serve-cold requests 3 and 103: %s on loop %d, %s on loop %d; want one loop under two names", a, la, b, lb)
	}
}

// TestCorpusSeedOneIsTheRegressionCorpus checks that seed 1's unit —
// the bench's copy of the Livermore kernels plus the generated
// programs — starts with exactly compile.Corpus(), so the copy cannot
// drift from internal/livermore, and that other seeds reorder the same
// loops.
func TestCorpusSeedOneIsTheRegressionCorpus(t *testing.T) {
	got, err := frontend.Compile(corpusSource(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := compile.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)-compile.CorpusCount+corpusGenerated {
		t.Fatalf("seed 1 unit has %d loops; want the corpus's %d with %d generated ones instead of %d",
			len(got), len(want), corpusGenerated, compile.CorpusCount)
	}
	for i := range want {
		var g, w strings.Builder
		if err := ddgio.Write(&g, got[i].Name, got[i].Graph); err != nil {
			t.Fatal(err)
		}
		if err := ddgio.Write(&w, want[i].Name, want[i].Graph); err != nil {
			t.Fatal(err)
		}
		if g.String() != w.String() {
			t.Errorf("loop %d: %s differs from the corpus's %s", i, got[i].Name, want[i].Name)
		}
	}
	one, two := splitLoops(corpusSource(1)), splitLoops(corpusSource(2))
	sort.Strings(one)
	sort.Strings(two)
	if !slices.Equal(one, two) {
		t.Error("seeds 1 and 2 compile different loop sets")
	}
}
