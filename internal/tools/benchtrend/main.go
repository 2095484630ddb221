// Command benchtrend appends one datapoint to a benchmark trend file
// from `go test -bench` output and enforces the bars the file declares.
// It knows no suites: every result line is kept in the datapoint's
// results, keyed by benchmark name (without the -N GOMAXPROCS suffix)
// and unit — the median of the lines when -count repeats a benchmark —
// and the file's gates say which metrics to derive and bar.
//
//	go test -run '^$' -bench BenchmarkClusterReport ./internal/server | tee bench_cluster.out
//	go run ./internal/tools/benchtrend -in bench_cluster.out -json BENCH_CLUSTER.json -note "ci trend"
//
// A trend file has the keys description, gates and datapoints. A gate
// such as {"metric": "scatter_overhead", "num": "BenchmarkClusterReport/scatter",
// "den": "BenchmarkClusterReport/single", "max": 6} derives num/den (or
// num − minus) in its unit, ns/op by default, rounded to two decimals.
// A gate without min or max only records its metric; a multicore gate
// passes when GOMAXPROCS is 1, where there is no parallelism to measure.
//
// A gate arm missing from the output fails the run before the file is
// touched, so a truncated benchmark cannot append garbage. The datapoint
// is written before the bars are checked, so a failing run still leaves
// its evidence; every failing bar is named and the exit status is
// nonzero.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// trendFile is the one shape every BENCH_*.json file has.
type trendFile struct {
	Description string      `json:"description"`
	Gates       []gate      `json:"gates"`
	Datapoints  []datapoint `json:"datapoints"`
}

// gate derives one metric from a datapoint's results and, when it has a
// min or a max, bars it.
type gate struct {
	Metric    string   `json:"metric"`
	Num       string   `json:"num"`
	Den       string   `json:"den,omitempty"`
	Minus     string   `json:"minus,omitempty"`
	Unit      string   `json:"unit,omitempty"`
	Min       *float64 `json:"min,omitempty"`
	Max       *float64 `json:"max,omitempty"`
	Multicore bool     `json:"multicore,omitempty"`
}

// datapoint is one run: every result line of its benchmark output and
// the metrics the file's gates derived from them.
type datapoint struct {
	Date    string                        `json:"date"`
	Go      string                        `json:"go"`
	CPU     string                        `json:"cpu,omitempty"`
	Procs   int                           `json:"procs,omitempty"`
	Note    string                        `json:"note"`
	Results map[string]map[string]float64 `json:"results"`
	Metrics map[string]float64            `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
		os.Exit(2)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchtrend", flag.ContinueOnError)
	in := fs.String("in", "-", "benchmark output to parse (- = stdin)")
	path := fs.String("json", "", "trend file whose gates are derived and enforced, and to which the datapoint is appended (required)")
	note := fs.String("note", "ci trend", "note recorded with the datapoint")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return errors.New("-json is required")
	}
	out, err := readInput(*in, stdin)
	if err != nil {
		return err
	}
	tf, err := loadTrend(*path)
	if err != nil {
		return err
	}
	dp, err := parseBench(out)
	if err != nil {
		return err
	}
	dp.Date, dp.Go, dp.Note = time.Now().UTC().Format("2006-01-02"), runtime.Version(), *note
	var summary, failed []string
	for _, g := range tf.Gates {
		v, err := g.value(dp.Results)
		if err != nil {
			return err
		}
		dp.Metrics[g.Metric] = v
		summary = append(summary, fmt.Sprintf("%s %.2f", g.Metric, v))
		if why := g.check(v, dp.Procs); why != "" {
			failed = append(failed, why)
		}
	}
	tf.Datapoints = append(tf.Datapoints, dp)
	grown, err := encodeTrend(tf)
	if err != nil {
		return fmt.Errorf("encoding %s: %w", *path, err)
	}
	if err := os.WriteFile(*path, grown, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "appended datapoint %d to %s: %s\n", len(tf.Datapoints), *path, strings.Join(summary, ", "))
	if len(failed) > 0 {
		return fmt.Errorf("%d bar(s) failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}

func readInput(path string, stdin io.Reader) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(stdin)
	}
	return os.ReadFile(path)
}

// loadTrend decodes a trend file strictly: a misspelled gate key would
// otherwise disarm its bar without a word.
func loadTrend(path string) (trendFile, error) {
	var tf trendFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return tf, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tf); err != nil {
		return tf, fmt.Errorf("parsing %s: %w", path, err)
	}
	return tf, nil
}

// encodeTrend renders the file the way it is committed, so an append
// only adds lines.
func encodeTrend(tf trendFile) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	err := enc.Encode(tf)
	return b.Bytes(), err
}

// parseBench turns `go test -bench` output into a datapoint holding
// every result line. A result line is "BenchmarkName[-N] iterations"
// followed by value/unit pairs; N is GOMAXPROCS, which the testing
// package leaves off when it is 1. A benchmark repeated with -count
// keeps, per unit, the median of its lines.
func parseBench(out []byte) (datapoint, error) {
	dp := datapoint{Results: map[string]map[string]float64{}, Metrics: map[string]float64{}}
	runs := map[string]map[string][]float64{} // every repeated line's values
	for _, line := range strings.Split(string(out), "\n") {
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			dp.CPU = strings.TrimSpace(cpu)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name, procs := f[0], 1
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		if dp.Procs != 0 && dp.Procs != procs {
			return dp, fmt.Errorf("%s: GOMAXPROCS %d differs from the run's %d; record one -cpu value per run", f[0], procs, dp.Procs)
		}
		dp.Procs = procs
		if runs[name] == nil {
			runs[name] = map[string][]float64{}
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return dp, fmt.Errorf("%s: parsing %s: %w", f[0], f[i+1], err)
			}
			runs[name][f[i+1]] = append(runs[name][f[i+1]], v)
		}
	}
	for name, units := range runs {
		dp.Results[name] = map[string]float64{}
		for unit, vs := range units {
			dp.Results[name][unit] = median(vs)
		}
	}
	return dp, nil
}

// median is the middle of a benchmark's repeated values (-count N), the
// mean of the two middle ones for an even count, so one outlying run
// cannot decide a gate.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// value derives the gate's metric from one datapoint's results.
func (g gate) value(results map[string]map[string]float64) (float64, error) {
	if (g.Den == "") == (g.Minus == "") {
		return 0, fmt.Errorf("gate %s: needs exactly one of den and minus", g.Metric)
	}
	unit := g.Unit
	if unit == "" {
		unit = "ns/op"
	}
	arm := func(name string) (float64, error) {
		v, ok := results[name][unit]
		if !ok {
			return 0, fmt.Errorf("gate %s: the output has no %s result for %s (truncated run?)", g.Metric, unit, name)
		}
		return v, nil
	}
	num, err := arm(g.Num)
	if err != nil {
		return 0, err
	}
	other, err := arm(g.Den + g.Minus) // exactly one of them is set
	if err != nil {
		return 0, err
	}
	v := num - other
	if g.Den != "" {
		v = num / other
	}
	return math.Round(v*100) / 100, nil
}

// check says why v fails the gate's bar on a run with the given
// GOMAXPROCS, or returns "" when it passes.
func (g gate) check(v float64, procs int) string {
	switch {
	case g.Multicore && procs <= 1:
		return "" // one core: no parallelism to measure
	case g.Min != nil && v < *g.Min:
		return fmt.Sprintf("%s %.2f is below the %g bar", g.Metric, v, *g.Min)
	case g.Max != nil && v > *g.Max:
		return fmt.Sprintf("%s %.2f exceeds the %g bar", g.Metric, v, *g.Max)
	}
	return ""
}
