// Command swimanalyze runs the study's full analysis methodology over a
// workload trace and prints every applicable figure and table.
//
// Analyze a trace file produced by swimgen:
//
//	swimanalyze -in cc-b.jsonl
//
// Stream a paper-length trace without loading it into memory (skips the
// analyses that need the whole trace at once — Table 2 k-means and the
// path-based Figures 2–6):
//
//	swimanalyze -in fb-2009.jsonl -stream
//
// Or trade memory for wall-clock: analyze the stream in parallel shards
// merged deterministically (byte-identical report at any shard count):
//
//	swimanalyze -in fb-2009.jsonl -stream -shards 0   # one shard per CPU
//
// Or generate-and-analyze in one step:
//
//	swimanalyze -workload FB-2009 -duration 336h -seed 1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	swim "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "swimanalyze: %v\n", err)
		os.Exit(2)
	}
}

// run is the testable body: parses args, loads or generates a trace,
// analyzes, and renders to stdout; errors go to the caller instead of
// os.Exit.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swimanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "trace file to analyze (.jsonl or .csv)")
		workload = fs.String("workload", "", "generate this workload instead of reading a file: "+strings.Join(swim.Workloads(), ", "))
		seed     = fs.Int64("seed", 1, "generator seed when -workload is used")
		duration = fs.Duration("duration", 0, "generated duration when -workload is used")
		topNames = fs.Int("top-names", 8, "number of job-name first words to list (Figure 10)")
		noTable2 = fs.Bool("skip-clustering", false, "skip the Table 2 k-means analysis")
		stream   = fs.Bool("stream", false, "single-pass streaming analysis of -in (.jsonl only: CSV carries no trace-length metadata); memory independent of trace length; skips Table 2 and the path-based Figures 2-6")
		sketch   = fs.Bool("sketch", false, "with -stream: use fixed-memory quantile sketches for Figure 1 (<2% relative quantile error) so memory is independent of job count too")
		shards   = fs.Int("shards", 1, "with -stream: analyze the trace in this many parallel shards merged deterministically (0 = one per CPU); the report is byte-identical at any shard count, but the jobs are held in memory while the shards run")
		csvDir   = fs.String("csv-dir", "", "also export per-figure CSV data files into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stream && *in == "" {
		return fmt.Errorf("-stream requires -in (streaming reads from a trace file)")
	}
	if *stream && strings.HasSuffix(*in, ".csv") {
		return fmt.Errorf("-stream needs a .jsonl trace: CSV files carry no trace-length metadata, which the hourly binning requires (analyze the CSV without -stream instead)")
	}
	if *sketch && !*stream {
		return fmt.Errorf("-sketch requires -stream")
	}
	if *shards != 1 && !*stream {
		return fmt.Errorf("-shards requires -stream (the materialized analysis is not sharded)")
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be >= 0 (0 = one per CPU)")
	}

	if *shards == 0 {
		*shards = runtime.GOMAXPROCS(0)
	}
	opts := swim.AnalyzeOptions{
		TopNames:        *topNames,
		SkipClustering:  *noTable2,
		SketchDataSizes: *sketch,
		Shards:          *shards,
	}
	var rep *swim.Report
	var err error
	switch {
	case *stream:
		rep, err = swim.AnalyzeFrom(*in, swim.Meta{Name: *in}, opts)
	case *in != "":
		var tr *swim.Trace
		if tr, err = swim.LoadTrace(*in, swim.Meta{Name: *in}); err == nil {
			rep, err = swim.Analyze(tr, opts)
		}
	case *workload != "":
		var tr *swim.Trace
		if tr, err = swim.Generate(swim.GenerateOptions{Workload: *workload, Seed: *seed, Duration: *duration}); err == nil {
			rep, err = swim.Analyze(tr, opts)
		}
	default:
		fs.Usage()
		return fmt.Errorf("need -in or -workload")
	}
	if err != nil {
		return err
	}
	if err := rep.Render(stdout); err != nil {
		return err
	}
	if *csvDir != "" {
		if err := rep.ExportCSV(*csvDir); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "exported per-figure CSVs to %s\n", *csvDir)
	}
	return nil
}
