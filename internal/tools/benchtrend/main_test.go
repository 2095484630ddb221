package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// rows feeds each committed trend file canned `go test -bench` output
// at GOMAXPROCS 4, with the metrics its gates must derive from it.
var rows = map[string]struct {
	out  string
	want map[string]float64
}{
	"BENCH_ANALYZE.json": {`pkg: repro/internal/core
BenchmarkParallelAnalyze/K=1-4         	       5	  21636837 ns/op	 6118202 B/op	   39083 allocs/op
BenchmarkParallelAnalyze/K=2-4         	       5	  14159707 ns/op	 6612458 B/op	   40076 allocs/op
BenchmarkParallelAnalyze/K=4-4         	       5	   9627556 ns/op	 6967050 B/op	   40443 allocs/op
BenchmarkParallelAnalyze/K=NumCPU-4    	       5	   9627556 ns/op	 6967050 B/op	   40443 allocs/op
`, map[string]float64{"speedup_numcpu": 2.25}},
	"BENCH_OBS.json": {`pkg: repro/internal/server
BenchmarkMiddlewareOverhead/bare-4         	   50000	         0.3575 ns/op	       0 B/op	       0 allocs/op
BenchmarkMiddlewareOverhead/instrumented-4 	   50000	      2135 ns/op	     998 B/op	      14 allocs/op
`, map[string]float64{"mw_overhead_ns": 2134.64}},
	"BENCH_SERVE.json": {`pkg: repro/internal/server
BenchmarkServeReport/cold-4  	       5	    906136 ns/op
BenchmarkServeReport/cold-scan-4         	       5	  22766558 ns/op
BenchmarkServeReport/warm-4              	       5	     73062 ns/op
BenchmarkStoreColdReport/memory-4        	       5	    805028 ns/op
BenchmarkStoreColdReport/disk-4          	       5	    846761 ns/op
BenchmarkStoreColdReport/disk-scan-4     	       5	  20854880 ns/op
`, map[string]float64{"restart_overhead": 1.05, "speedup": 12.4}},
	"BENCH_SCAN.json": {`pkg: repro/internal/storage
BenchmarkSegmentScan/jsonl-4         	      50	  77715937 ns/op	 222.19 MB/s	     68581 jobs/scan	  17267322 segbytes
BenchmarkSegmentScan/colseg-4        	      50	   6395478 ns/op	 895.60 MB/s	     68581 jobs/scan	   5727758 segbytes
BenchmarkFragmentedScan/fragmented-4 	      50	    427679 ns/op	        29.00 blocks	        29.00 segments
BenchmarkFragmentedScan/compacted-4  	      50	     90503 ns/op	         1.000 blocks	         1.000 segments
BenchmarkParallelScan/segment-4      	      50	  33658125 ns/op
BenchmarkParallelScan/block-4        	      50	  19939213 ns/op
BenchmarkParallelScan/window-4       	      50	   1214335 ns/op	      1230 jobs/window
`, map[string]float64{"scan_speedup": 12.15, "compression_ratio": 3.01, "compaction_speedup": 4.73, "block_parallel_speedup": 1.69, "window_scan_share": 0.06}},
	"BENCH_APPEND.json": {`pkg: repro/internal/server
BenchmarkAppendIngest/oneshot-4         	       5	  84343933 ns/op
BenchmarkAppendIngest/batched-4         	       5	 113039512 ns/op	        85.95 snapshot-B/job
BenchmarkAppendIngest/live-4            	       5	1094557538 ns/op	       173.4 snapshot-B/job
BenchmarkWindowedReport/full-4          	       5	    814217 ns/op
BenchmarkWindowedReport/window-4        	       5	   1596323 ns/op
`, map[string]float64{"append_overhead": 1.34, "live_append_overhead": 12.98, "window_speedup": 0.51}},
	"BENCH_CLUSTER.json": {`pkg: repro/internal/server
BenchmarkClusterReport/single-4         	       5	    606902 ns/op
BenchmarkClusterReport/scatter-4        	       5	   1915532 ns/op
`, map[string]float64{"scatter_overhead": 3.16}},
}

const header = "goos: linux\ngoarch: amd64\ncpu: Test CPU @ 3.00GHz\n"

// procsSuffix matches a result line's -N GOMAXPROCS suffix.
var procsSuffix = regexp.MustCompile(`(?m)^(Benchmark\S*)-\d+(\s)`)

// trendCopy writes a temporary copy of a committed trend file, with edit
// applied to each of its gates.
func trendCopy(t *testing.T, file string, edit func(*gate)) string {
	t.Helper()
	tf, err := loadTrend(filepath.Join("..", "..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tf.Gates {
		edit(&tf.Gates[i])
	}
	b, err := encodeTrend(tf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), file)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func appendTo(path, out string) error {
	return run([]string{"-json", path, "-note", "table"}, strings.NewReader(header+out+"PASS\n"), io.Discard)
}

func load(t *testing.T, path string) (trendFile, []byte) {
	t.Helper()
	tf, err := loadTrend(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return tf, raw
}

// checkAppend appends a file's canned output to a copy of it under the
// committed bars and checks the datapoint: the derived metrics, cpu,
// note and procs, every result line kept, the history untouched.
func checkAppend(t *testing.T, file string) datapoint {
	t.Helper()
	row := rows[file]
	path := trendCopy(t, file, func(*gate) {})
	_, before := load(t, path)
	if err := appendTo(path, row.out); err != nil {
		t.Fatalf("committed bars fail on passing output: %v", err)
	}
	tf, _ := load(t, path)
	dp := tf.Datapoints[len(tf.Datapoints)-1]
	if !reflect.DeepEqual(dp.Metrics, row.want) {
		t.Errorf("metrics %v, want %v", dp.Metrics, row.want)
	}
	if dp.CPU != "Test CPU @ 3.00GHz" || dp.Note != "table" || dp.Procs != 4 {
		t.Errorf("cpu %q note %q procs %d", dp.CPU, dp.Note, dp.Procs)
	}
	if n := strings.Count(row.out, "\nBenchmark"); len(dp.Results) != n {
		t.Errorf("kept %d results, want every one of the %d result lines", len(dp.Results), n)
	}
	tf.Datapoints = tf.Datapoints[:len(tf.Datapoints)-1]
	if b, _ := encodeTrend(tf); !bytes.Equal(b, before) {
		t.Error("appending rewrote the earlier datapoints")
	}
	return dp
}

// checkTruncated feeds a file empty output and then its canned output
// without each gate arm in turn: every run fails, naming the arm, and
// leaves the file byte-identical.
func checkTruncated(t *testing.T, file string) {
	t.Helper()
	path := trendCopy(t, file, func(*gate) {})
	tf, before := load(t, path)
	if err := appendTo(path, ""); err == nil {
		t.Error("empty benchmark output did not fail")
	}
	for _, g := range tf.Gates {
		for _, arm := range []string{g.Num, g.Den + g.Minus} {
			cut := regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(arm)+`-\d+\s.*\n`).ReplaceAllString(rows[file].out, "")
			if err := appendTo(path, cut); err == nil || !strings.Contains(err.Error(), arm) {
				t.Errorf("output without %s: err = %v", arm, err)
			}
		}
	}
	if _, after := load(t, path); !bytes.Equal(after, before) {
		t.Fatal("a truncated run changed the file")
	}
}

// checkBars tightens the named metrics' bars (every bar when none is
// named) past the canned values. At GOMAXPROCS 4 and, without -N
// suffixes, at GOMAXPROCS 1 the run appends its datapoint and then
// fails naming exactly the tightened bars, except that the multicore
// ones pass on one core.
func checkBars(t *testing.T, file string, metrics ...string) {
	t.Helper()
	row := rows[file]
	barred := func(g gate) bool { return g.Min != nil || g.Max != nil }
	tight := func(g gate) bool { return barred(g) && (len(metrics) == 0 || slices.Contains(metrics, g.Metric)) }
	path := trendCopy(t, file, func(g *gate) {
		if tight(*g) && g.Min != nil {
			*g.Min = row.want[g.Metric] + 1
		}
		if tight(*g) && g.Max != nil {
			*g.Max = row.want[g.Metric] - 1
		}
	})
	tf, _ := load(t, path)
	for _, m := range metrics {
		if !slices.ContainsFunc(tf.Gates, func(g gate) bool { return g.Metric == m && barred(g) }) {
			t.Fatalf("%s has no barred gate %s", file, m)
		}
	}
	for i, procs := range []int{4, 1} {
		out := row.out
		if procs == 1 {
			out = procsSuffix.ReplaceAllString(out, "$1$2")
		}
		err := appendTo(path, out)
		after, _ := load(t, path)
		if n := len(after.Datapoints) - len(tf.Datapoints); n != i+1 {
			t.Errorf("procs %d: %d datapoints appended, want %d", procs, n, i+1)
		}
		if dp := after.Datapoints[len(after.Datapoints)-1]; !reflect.DeepEqual(dp.Metrics, row.want) || dp.Procs != procs {
			t.Errorf("procs %d: appended metrics %v procs %d", procs, dp.Metrics, dp.Procs)
		}
		for _, g := range after.Gates {
			want := tight(g) && (procs > 1 || !g.Multicore)
			if named := err != nil && strings.Contains(err.Error(), g.Metric+" "); named != want {
				t.Errorf("procs %d: %s named %v, want %v (err %v)", procs, g.Metric, named, want, err)
			}
		}
	}
}

func TestAppendDatapoint(t *testing.T)                       { checkAppend(t, "BENCH_ANALYZE.json") }
func TestAppendDatapointRejectsTruncatedOutput(t *testing.T) { checkTruncated(t, "BENCH_ANALYZE.json") }
func TestCheckSpeedup(t *testing.T)                          { checkBars(t, "BENCH_ANALYZE.json", "speedup_numcpu") }

// One core measures no parallelism: a 1.0x speedup passes the 1.5 bar.
func TestAppendDatapointSingleCore(t *testing.T) {
	path := trendCopy(t, "BENCH_ANALYZE.json", func(*gate) {})
	out := "BenchmarkParallelAnalyze/K=1   3   21636837 ns/op\nBenchmarkParallelAnalyze/K=NumCPU   3   21636837 ns/op\n"
	if err := appendTo(path, out); err != nil {
		t.Fatal(err)
	}
	tf, _ := load(t, path)
	if dp := tf.Datapoints[len(tf.Datapoints)-1]; dp.Metrics["speedup_numcpu"] != 1 || dp.Procs != 1 {
		t.Errorf("single-core datapoint %+v", dp)
	}
}

func TestAppendServeDatapoint(t *testing.T)                 { checkAppend(t, "BENCH_SERVE.json") }
func TestAppendServeDatapointRejectsTruncated(t *testing.T) { checkTruncated(t, "BENCH_SERVE.json") }
func TestCheckRestartOverhead(t *testing.T)                 { checkBars(t, "BENCH_SERVE.json", "restart_overhead") }

func TestAppendScanDatapoint(t *testing.T) { checkAppend(t, "BENCH_SCAN.json") }

// A result line without the gate's unit is as truncated as a missing line.
func TestAppendScanDatapointRejectsTruncated(t *testing.T) {
	checkTruncated(t, "BENCH_SCAN.json")
	noBytes := regexp.MustCompile(` +\d+ segbytes`).ReplaceAllString(rows["BENCH_SCAN.json"].out, "")
	if err := appendTo(trendCopy(t, "BENCH_SCAN.json", func(*gate) {}), noBytes); err == nil || !strings.Contains(err.Error(), "segbytes") {
		t.Errorf("output without segbytes: err = %v", err)
	}
}

func TestCheckScanSpeedup(t *testing.T)       { checkBars(t, "BENCH_SCAN.json", "scan_speedup") }
func TestCheckCompactionSpeedup(t *testing.T) { checkBars(t, "BENCH_SCAN.json", "compaction_speedup") }
func TestCheckBlockParallelSpeedup(t *testing.T) {
	checkBars(t, "BENCH_SCAN.json", "block_parallel_speedup")
}

// A benchmark repeated with -count keeps the median of its lines per
// unit, so an outlying last run cannot decide a gate: five colseg runs
// ending on a slow one gate scan_speedup on the middle run, and an even
// count takes the mean of the two middle values.
func TestRepeatedResultLinesKeepMedian(t *testing.T) {
	colseg := regexp.MustCompile(`(?m)^BenchmarkSegmentScan/colseg-4 .*\n`)
	out := colseg.ReplaceAllString(rows["BENCH_SCAN.json"].out, `BenchmarkSegmentScan/colseg-4 50 6395478 ns/op 895.60 MB/s 68581 jobs/scan 5727758 segbytes
BenchmarkSegmentScan/colseg-4 50 6200000 ns/op 900.00 MB/s 68581 jobs/scan 5727758 segbytes
BenchmarkSegmentScan/colseg-4 50 6600000 ns/op 880.00 MB/s 68581 jobs/scan 5727758 segbytes
BenchmarkSegmentScan/colseg-4 50 6300000 ns/op 910.00 MB/s 68581 jobs/scan 5727758 segbytes
BenchmarkSegmentScan/colseg-4 50 17370000 ns/op 330.00 MB/s 68581 jobs/scan 5727758 segbytes
`)
	path := trendCopy(t, "BENCH_SCAN.json", func(*gate) {})
	if err := appendTo(path, out); err != nil {
		t.Fatalf("the median run passes every bar: %v", err)
	}
	tf, _ := load(t, path)
	dp := tf.Datapoints[len(tf.Datapoints)-1]
	if got := dp.Results["BenchmarkSegmentScan/colseg"]; got["ns/op"] != 6395478 || got["MB/s"] != 895.60 || got["segbytes"] != 5727758 {
		t.Errorf("colseg result %v, want the median line's values", got)
	}
	if got := dp.Metrics["scan_speedup"]; got != 12.15 {
		t.Errorf("scan_speedup %.2f, want 12.15 from the median run", got)
	}

	even := "BenchmarkParallelAnalyze/K=1-4 5 20000000 ns/op\nBenchmarkParallelAnalyze/K=1-4 5 30000000 ns/op\n" +
		"BenchmarkParallelAnalyze/K=NumCPU-4 5 10000000 ns/op\n"
	path = trendCopy(t, "BENCH_ANALYZE.json", func(*gate) {})
	if err := appendTo(path, even); err != nil {
		t.Fatal(err)
	}
	tf, _ = load(t, path)
	if got := tf.Datapoints[len(tf.Datapoints)-1].Metrics["speedup_numcpu"]; got != 2.5 {
		t.Errorf("speedup_numcpu %.2f, want 2.5 from the mean of the two middle K=1 runs", got)
	}
}

// The compaction and parallel-strategy arms ride on the scan datapoint
// with their own units, and a codec-only run lacks required arms.
func TestAppendScanDatapointWithCompanions(t *testing.T) {
	dp := checkAppend(t, "BENCH_SCAN.json")
	if got := dp.Results["BenchmarkFragmentedScan/fragmented"]; !reflect.DeepEqual(got, map[string]float64{"ns/op": 427679, "blocks": 29, "segments": 29}) {
		t.Errorf("fragmented result %v", got)
	}
	codecOnly := regexp.MustCompile(`(?m)^Benchmark(Fragmented|Parallel)Scan/.*\n`).ReplaceAllString(rows["BENCH_SCAN.json"].out, "")
	if err := appendTo(trendCopy(t, "BENCH_SCAN.json", func(*gate) {}), codecOnly); err == nil || !strings.Contains(err.Error(), "BenchmarkFragmentedScan/") {
		t.Errorf("codec-only output: err = %v", err)
	}
}

func TestAppendAppendDatapoint(t *testing.T)                 { checkAppend(t, "BENCH_APPEND.json") }
func TestAppendAppendDatapointRejectsTruncated(t *testing.T) { checkTruncated(t, "BENCH_APPEND.json") }
func TestCheckAppendOverhead(t *testing.T)                   { checkBars(t, "BENCH_APPEND.json", "append_overhead") }

func TestAppendClusterDatapoint(t *testing.T) { checkAppend(t, "BENCH_CLUSTER.json") }
func TestAppendClusterDatapointRejectsTruncated(t *testing.T) {
	checkTruncated(t, "BENCH_CLUSTER.json")
}
func TestCheckScatterOverhead(t *testing.T) { checkBars(t, "BENCH_CLUSTER.json", "scatter_overhead") }

func TestAppendObsDatapoint(t *testing.T)                 { checkAppend(t, "BENCH_OBS.json") }
func TestAppendObsDatapointRejectsTruncated(t *testing.T) { checkTruncated(t, "BENCH_OBS.json") }
func TestCheckMiddlewareOverhead(t *testing.T)            { checkBars(t, "BENCH_OBS.json", "mw_overhead_ns") }

// TestEveryFailingBarNamed tightens every bar of every trend file at
// once: each failing bar is named, not just the first.
func TestEveryFailingBarNamed(t *testing.T) {
	for file := range rows {
		t.Run(file, func(t *testing.T) { checkBars(t, file) })
	}
}

// TestCommittedTrendFiles decodes every committed BENCH_*.json strictly,
// checks it is in the form benchtrend writes, and evaluates each gate on
// the last datapoint that recorded its metric: the value recomputed from
// the results must match the recorded one and pass the gate's bar.
func TestCommittedTrendFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "BENCH_*.json"))
	if err != nil || len(files) != len(rows) {
		t.Fatalf("found %d trend files, the table covers %d (%v)", len(files), len(rows), err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"gates": [{"metric": "m", "num": "a", "den": "b", "mx": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrend(bad); err == nil {
		t.Error("a misspelled gate key loaded, disarming its bar")
	}
	for _, f := range files {
		if _, ok := rows[filepath.Base(f)]; !ok {
			t.Errorf("%s has no table row", f)
		}
		tf, raw := load(t, f)
		if b, _ := encodeTrend(tf); !bytes.Equal(b, raw) {
			t.Errorf("%s is not in the form benchtrend writes", f)
		}
		for _, g := range tf.Gates {
			var dp *datapoint
			for i := range tf.Datapoints {
				if _, ok := tf.Datapoints[i].Metrics[g.Metric]; ok {
					dp = &tf.Datapoints[i]
				}
			}
			if dp == nil {
				t.Errorf("%s: no datapoint records %s", f, g.Metric)
				continue
			}
			v, err := g.value(dp.Results)
			if err != nil {
				t.Errorf("%s: %v", f, err)
				continue
			}
			// Datapoints older than this format kept whole-nanosecond
			// results, so their recorded metrics may differ by rounding.
			if rec := dp.Metrics[g.Metric]; math.Abs(v-rec) > 0.01*math.Max(1, math.Abs(rec)) {
				t.Errorf("%s: %s recomputes to %.2f, recorded %.2f", f, g.Metric, v, rec)
			}
			if why := g.check(v, dp.Procs); why != "" {
				t.Errorf("%s: %s", f, why)
			}
		}
	}
}
