package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// result is the last line a workload run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// parseResult decodes the last line of a workload run's output.
func parseResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("decoding result line: %w", err)
	}
	if !r.Correct {
		return nil, errors.New("run reported incorrect output")
	}
	return &r, nil
}

// summaryRow is one metric of one workload over every run.
type summaryRow struct {
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Spread  float64 `json:"spread"`
	Bound   float64 `json:"bound,omitempty"`
	Flagged bool    `json:"flagged,omitempty"`
}

// runRepeat runs every selected workload n times, each run in a fresh
// child process of this binary so peak memory and GC state belong to
// that run alone. Each round starts one workload later than the last,
// so no workload always runs first. It prints every run's output, then
// each metric's median and quartiles per workload, flagging an
// end-to-end metric whose quartile spread exceeds its bound; the last
// line is that summary as JSON.
func runRepeat(ctx context.Context, w io.Writer, cfg config, ws []workload, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	defs := endToEnd
	traceArg := "0"
	if cfg.trace {
		defs, traceArg = perLayer, "1"
	}
	values := make(map[string]map[string][]float64)
	for r := 0; r < n; r++ {
		for k := range ws {
			wl := ws[(k+r)%len(ws)]
			args := []string{
				"--workload", wl.name,
				"--seed", strconv.FormatInt(cfg.seed, 10),
				"--seconds", strconv.FormatFloat(cfg.window.Seconds(), 'f', -1, 64),
				"--trace", traceArg,
			}
			if cfg.quick {
				args = append(args, "--quick")
			}
			if cfg.clusterd != "" {
				args = append(args, "--clusterd", cfg.clusterd)
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s, round %d: %w", wl.name, r+1, err)
			}
			fmt.Fprintf(w, "== %s, round %d of %d\n%s", wl.name, r+1, n, out)
			res, err := parseResult(out)
			if err != nil {
				return fmt.Errorf("%s, round %d: %w", wl.name, r+1, err)
			}
			if values[wl.name] == nil {
				values[wl.name] = make(map[string][]float64)
			}
			for name, v := range res.Metrics {
				values[wl.name][name] = append(values[wl.name][name], v.Value)
			}
		}
	}

	summary := make(map[string]map[string]summaryRow)
	flagged := 0
	fmt.Fprintf(w, "== summary: %d run(s) per workload, seed %d\n", n, cfg.seed)
	fmt.Fprintf(w, "%-15s %-30s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, wl := range ws {
		summary[wl.name] = make(map[string]summaryRow)
		for _, d := range defs {
			xs := values[wl.name][d.name]
			if len(xs) == 0 {
				continue
			}
			row := summaryRow{Median: median(xs), Q1: xs[0], Q3: xs[0], Bound: d.bound}
			if len(xs) >= 2 {
				row.Q1, row.Q3 = quartiles(xs)
				row.Spread = spread(xs)
			}
			mark := ""
			if !cfg.trace && row.Spread > d.bound {
				row.Flagged = true
				flagged++
				mark = "  SPREAD EXCEEDS BOUND"
			}
			summary[wl.name][d.name] = row
			fmt.Fprintf(w, "%-15s %-30s %14.4f %14.4f %14.4f %8.4f %6.3f%s\n",
				wl.name, d.name, row.Median, row.Q1, row.Q3, row.Spread, d.bound, mark)
		}
	}
	line, err := json.Marshal(struct {
		Runs      int                              `json:"runs"`
		Seed      int64                            `json:"seed"`
		Flagged   int                              `json:"flagged"`
		Workloads map[string]map[string]summaryRow `json:"workloads"`
	}{n, cfg.seed, flagged, summary})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
