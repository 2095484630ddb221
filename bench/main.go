// Command bench is swimd's end-to-end benchmark. It generates one
// workload's inputs from a seed, drives a real swimd child over
// loopback HTTP from one process with at most two connections, checks
// every response, and prints the end-to-end metrics; with -trace 1 it
// replays the same request sequence in-process, spans around each
// layer's calls, and prints the per-layer metrics instead.
//
//	bash bench/run.sh --workload warm-skew --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload ooc-window --seed 1 --seconds 20 --trace 1
//	go -C bench run . -compare parent.jsonl change.jsonl
//
// See README.md for the workloads, the metrics, and how to read a
// spans file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the run's machine-readable record: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as kept in a result set (-record), the input of
// -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Date     string `json:"date"`
	result
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: warm-skew, cold-finalize, ooc-window or live-append")
		seed    = fs.Uint64("seed", 1, "input and request-sequence seed")
		seconds = fs.Float64("seconds", 20, "measured seconds (open loop then closed loop; a traced run replays for this long)")
		traced  = fs.Int("trace", 0, "1: in-process traced replay printing the per-layer metrics")
		swimd   = fs.String("swimd", ".bench_build/bin/swimd", "swimd binary to benchmark")
		work    = fs.String("work", ".bench_build/run", "scratch directory for data directories")
		spans   = fs.String("out", "bench/out", "directory the traced run writes its spans file to")
		rec     = fs.String("record", "", "append this run's record to a JSONL result set")
		compare = fs.Bool("compare", false, "compare two result sets: -compare parent.jsonl change.jsonl")
		bounds  = fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json with the regression bounds -compare applies")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result sets")
			return 2
		}
		if err := compareSets(*bounds, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}

	var res *runResult
	if *traced == 1 {
		res, err = runTraced(w, *work, *spans, *seconds)
	} else {
		if _, serr := os.Stat(*swimd); serr != nil {
			fmt.Fprintf(stderr, "bench: swimd binary: %v (bench/run.sh builds it)\n", serr)
			return 2
		}
		res, err = runLoad(w, swimdLauncher(*swimd), *work, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}

	for _, e := range res.errs {
		fmt.Fprintf(stderr, "bench: %s: FAIL %s\n", w.name, e)
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	out := result{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metric, len(res.metrics)),
	}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%s %v %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	fmt.Fprintf(stdout, "error_rate %v\n", float64(out.Failed)/float64(max(out.Attempted, 1)))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *rec != "" {
		if err := appendRecord(*rec, record{Workload: w.name, Seed: *seed, Trace: *traced,
			Date: time.Now().UTC().Format(time.RFC3339), result: out}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// appendRecord appends one run to a JSONL result set.
func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
