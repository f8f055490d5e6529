package main

import (
	"context"
	_ "embed"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"clustersched/internal/compile"
	"clustersched/internal/ddg"
	"clustersched/internal/diag"
	"clustersched/internal/emit"
	"clustersched/internal/frontend"
	"clustersched/internal/lint"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
	"clustersched/internal/regalloc"
	"clustersched/internal/stagesched"
	"clustersched/internal/verify"
)

//go:embed livermore.loop
var livermoreSource string

// corpusWorkers is the schedule-stage width of corpus-compile. It is
// fixed rather than taken from the host so runs on different hosts do
// the same work; 2 is the core count of the reference host, where the
// stage graph's parallelism can show at all.
const corpusWorkers = 2

// corpusGenerated is the number of generated programs in the unit,
// four times the checked-in corpus's. The generator extends one stream,
// so the first compile.CorpusCount of them are the corpus's own.
const corpusGenerated = 4 * compile.CorpusCount

// corpusSource is corpus-compile's translation unit for seed: the
// Livermore kernels and the generated programs of the regression
// corpus's stream, in an order drawn from the seed. Seed 1 keeps the
// source order, so its unit starts with exactly compile.Corpus().
//
// The seed orders a fixed set of loops instead of drawing new ones, as
// in the suite-based workloads: units drawn per seed differ in compile
// time by a fifth and in match rate by points, which would swamp every
// bound.
func corpusSource(seed int64) string {
	loops := splitLoops(livermoreSource + loopgen.SourceCorpus(compile.CorpusSeed, corpusGenerated))
	if seed != 1 {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(loops), func(i, j int) { loops[i], loops[j] = loops[j], loops[i] })
	}
	return strings.Join(loops, "")
}

// splitLoops cuts loop-language source into one string per loop,
// dropping comments and blank lines between loops.
func splitLoops(src string) []string {
	var (
		loops []string
		cur   strings.Builder
		open  bool
	)
	for _, line := range strings.SplitAfter(src, "\n") {
		if strings.HasPrefix(line, "loop ") {
			open = true
		}
		if !open {
			continue
		}
		cur.WriteString(line)
		if strings.TrimSpace(line) == "}" {
			loops = append(loops, cur.String())
			cur.Reset()
			open = false
		}
	}
	return loops
}

func corpusOptions(workers int) compile.Options {
	return compile.Options{Pipeline: facadeOptions(), Workers: workers, StageSched: true}
}

// loopWant is one loop of the reference compile.
type loopWant struct {
	name       string
	ii, copies int
	text       string
}

// corpusInst is corpus-compile set up: the unit's source and the
// output of the sim-validated reference compile. One operation is one
// compile.Source of the whole unit.
type corpusInst struct {
	src     string
	m       *machine.Config
	want    []loopWant
	quality quality

	// Counters of the traced window.
	tus, loops, moved, textBytes int
	stageNS, capacityNS          int64
}

// setupCorpus compiles the unit twice, untimed: once on one worker with
// every kernel sim-validated against sequential execution, which
// becomes the reference, and once in the timed configuration, whose
// output must equal it byte for byte.
func setupCorpus(ctx context.Context, cfg config) (instance, error) {
	c := &corpusInst{src: corpusSource(cfg.seed), m: machine.NewBusedGP(2, 2, 1)}
	vopts := corpusOptions(1)
	vopts.Validate = true
	ref, err := compile.Source(ctx, c.src, c.m, vopts)
	if err != nil {
		return nil, err
	}
	graphs := make([]*ddg.Graph, len(ref.Loops))
	for i, l := range ref.Loops {
		if l.Err != nil {
			return nil, fmt.Errorf("validated reference compile: %w", l.Err)
		}
		graphs[i] = l.Graph
		c.want = append(c.want, loopWant{l.Name, l.Outcome.II, l.Outcome.Assignment.Copies, l.Text})
	}
	unified := unifiedIIs(graphs, c.m)
	for i, l := range ref.Loops {
		c.quality.add(l.Outcome.II, l.Outcome.MII, l.Outcome.Assignment.Copies, l.Alloc.TotalRegisters(), unified[i])
	}
	got, err := compile.Source(ctx, c.src, c.m, corpusOptions(corpusWorkers))
	if err != nil {
		return nil, err
	}
	if err := c.check(got); err != nil {
		return nil, fmt.Errorf("output at %d workers differs from 1 worker: %w", corpusWorkers, err)
	}
	return c, nil
}

// check compares a compile with the reference, loop by loop.
func (c *corpusInst) check(res *compile.Result) error {
	if len(res.Loops) != len(c.want) {
		return fmt.Errorf("%d loops, want %d", len(res.Loops), len(c.want))
	}
	for i, l := range res.Loops {
		w := &c.want[i]
		switch {
		case l.Err != nil:
			return fmt.Errorf("loop %s: %w", w.name, l.Err)
		case l.Name != w.name || l.Outcome.II != w.ii || l.Outcome.Assignment.Copies != w.copies || l.Text != w.text:
			return fmt.Errorf("loop %s: output differs from the reference compile", w.name)
		}
	}
	return nil
}

func (c *corpusInst) callers() int { return 1 }

func (c *corpusInst) op(_ context.Context, _, i int, tr *tracer) (time.Duration, bool, error) {
	root, call := -1, -1
	if tr != nil {
		root = tr.begin(i, -1, "op")
		call = tr.begin(i, root, "compile.source")
	}
	start := time.Now()
	res, err := compile.Source(context.Background(), c.src, c.m, corpusOptions(corpusWorkers))
	lat := time.Since(start)
	if tr != nil {
		tr.end(call)
		defer tr.end(root)
	}
	if err != nil {
		return lat, false, fmt.Errorf("corpus-compile: %w", err)
	}
	if err := c.check(res); err != nil {
		return lat, false, fmt.Errorf("corpus-compile: %w", err)
	}
	if tr != nil {
		for _, st := range res.Stages {
			c.stageNS += st.NS
		}
		c.capacityNS += lat.Nanoseconds() * corpusWorkers
		if err := c.decompose(tr, i, root); err != nil {
			return lat, false, fmt.Errorf("corpus-compile: %w", err)
		}
	}
	return lat, false, nil
}

// decompose replays the unit through each layer's public entry point,
// sequentially: frontend, then per loop the graph lint, the schedule
// on one session per unit (as compile.Source builds fresh sessions per
// call), stage scheduling, the checked MVE allocation and emission.
func (c *corpusInst) decompose(tr *tracer, op, parent int) error {
	id := tr.begin(op, parent, "decomp")
	defer tr.end(id)
	t := tr.begin(op, id, "frontend")
	loops, err := frontend.Compile(c.src)
	tr.end(t)
	if err != nil {
		return err
	}
	t = tr.begin(op, id, "pipeline")
	sess := pipeline.NewSession(c.m, facadeOptions())
	tr.end(t)
	for i, l := range loops {
		t = tr.begin(op, id, "lint")
		lerr := diag.AsError(lint.Graph(l.Graph))
		tr.end(t)
		if lerr != nil {
			return fmt.Errorf("loop %s: %w", l.Name, lerr)
		}
		t = tr.begin(op, id, "pipeline")
		out, err := sess.Schedule(context.Background(), l.Graph)
		tr.end(t)
		if err != nil {
			return fmt.Errorf("loop %s: %w", l.Name, err)
		}
		in, sch := inputOf(c.m, out), out.Schedule
		t = tr.begin(op, id, "stagesched")
		c.moved += stagesched.Optimize(in, sch)
		tr.end(t)
		t = tr.begin(op, id, "regalloc")
		verr := verify.Schedule(in, sch)
		alloc := regalloc.AllocateMVE(in, sch)
		aerr := alloc.Validate(in, sch)
		tr.end(t)
		if verr != nil || aerr != nil {
			return fmt.Errorf("loop %s: schedule %v, allocation %v", l.Name, verr, aerr)
		}
		t = tr.begin(op, id, "emit")
		text := emit.Kernel(in, sch)
		tr.end(t)
		if text != c.want[i].text {
			return fmt.Errorf("loop %s: decomposed output differs from compile.Source", l.Name)
		}
		c.loops++
		c.textBytes += len(text)
	}
	c.tus++
	return nil
}

func (c *corpusInst) output() quality { return c.quality }

func (c *corpusInst) peakRSS() (metric, error) { return selfPeakRSS() }

func (c *corpusInst) beginTrace(context.Context) error { return nil }

func (c *corpusInst) layers(_ context.Context, tracers []*tracer) (map[string]metric, error) {
	l := newLedger(tracers)
	tuNote := fmt.Sprintf("n=%d units", c.tus)
	note := fmt.Sprintf("n=%d loops", c.loops)
	var sum time.Duration
	for _, name := range []string{"frontend", "lint", "pipeline", "stagesched", "regalloc", "emit"} {
		sum += l[name]
	}
	capacity := fmt.Sprintf("over %d workers x wall", corpusWorkers)
	return map[string]metric{
		"frontend.us_per_tu":        {l.us("frontend", c.tus), tuNote},
		"lint.us_per_loop":          {l.us("lint", c.loops), note},
		"pipeline.us_per_loop":      {l.us("pipeline", c.loops), note + "; includes one NewSession per unit"},
		"stagesched.us_per_loop":    {l.us("stagesched", c.loops), note},
		"stagesched.moved_per_loop": {float64(c.moved) / float64(c.loops), note},
		"regalloc.us_per_loop":      {l.us("regalloc", c.loops), note},
		"emit.us_per_loop":          {l.us("emit", c.loops), note},
		"emit.bytes_per_loop":       {float64(c.textBytes) / float64(c.loops), note},
		"compile.busy_frac":         {float64(c.stageNS) / float64(c.capacityNS), "stage time " + capacity},
		"compile.unattributed_frac": {1 - float64(sum.Nanoseconds())/float64(c.capacityNS), "1 - layer time " + capacity},
	}, nil
}

func (c *corpusInst) close() error { return nil }
