package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -compare applies.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords loads a result set: one record per line, as -record
// appends them. Traced runs are skipped (their metrics have no bounds).
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareSets checks a change's result set against its parent's,
// metric by metric, with the bounds BENCHMARK.json fixes. A metric is
// worse when the change's median is worse than the parent's by more
// than its bound, and unresolved when the parent's own runs spread
// wider than the bound — unless every change run beats every parent
// run. It prints one row per workload and metric and fails when any
// metric is worse.
func compareSets(specPath, parentPath, changePath string, out io.Writer) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tdelta\tbound\tverdict\t")
	worse := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			p, c := parent[wl.Name][m.Name], change[wl.Name][m.Name]
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d runs\t%d runs\t\t%.0f%%\tmissing\t\n", wl.Name, m.Name, len(p), len(c), 100*m.Bound)
				continue
			}
			v, delta := verdict(p, c, m.Better == "higher", m.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.0f%%\t%s\t\n",
				wl.Name, m.Name, median(p), m.Unit, median(c), m.Unit, 100*delta, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

// verdict judges one metric of one workload: ok, worse or unresolved.
// delta is the change's median relative to the parent's.
func verdict(parent, change []float64, higherIsBetter bool, bound float64) (string, float64) {
	pm, cm := median(parent), median(change)
	delta := ratio(cm-pm, pm)
	loss := delta // how much worse, as a share of the parent's median
	if higherIsBetter {
		loss = -delta
	}
	if spread(parent) > bound {
		better := true
		for _, p := range parent {
			for _, c := range change {
				if (higherIsBetter && c <= p) || (!higherIsBetter && c >= p) {
					better = false
				}
			}
		}
		if better {
			return "ok", delta
		}
		return "unresolved", delta
	}
	if loss > bound {
		return "worse", delta
	}
	return "ok", delta
}
