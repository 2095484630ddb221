package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/gen"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// checkAppendJSON holds AppendJSON, and WriteJSON, to the reference
// encoding: the bytes of json.Marshal(rep.JSON()) and of
// json.Encoder.Encode, or an error from both. It returns the error both
// sides returned.
func checkAppendJSON(t *testing.T, name string, rep *Report) error {
	t.Helper()
	want, wantErr := json.Marshal(rep.JSON())
	prefix := []byte("prefix")
	got, gotErr := rep.AppendJSON(prefix[:len(prefix):len(prefix)])
	switch {
	case wantErr != nil || gotErr != nil:
		if wantErr == nil || gotErr == nil {
			t.Errorf("%s: json.Marshal error %v, AppendJSON error %v", name, wantErr, gotErr)
		}
		return wantErr
	case !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want):
		got = bytes.TrimPrefix(got, prefix)
		i := firstDiff(got, want)
		t.Errorf("%s: AppendJSON differs from json.Marshal at byte %d of %d/%d\n got: %s\nwant: %s",
			name, i, len(got), len(want), clip(string(got[max(i-80, 0):]), 200), clip(string(want[max(i-80, 0):]), 200))
		return nil
	}
	var enc, wrote bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(rep.JSON()); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&wrote); err != nil || !bytes.Equal(wrote.Bytes(), enc.Bytes()) {
		t.Errorf("%s: WriteJSON (err %v) differs from json.Encoder.Encode", name, err)
	}
	return nil
}

// sameBytes is checkAppendJSON for a report that must encode.
func sameBytes(t *testing.T, name string, rep *Report) {
	t.Helper()
	if err := checkAppendJSON(t, name, rep); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// bothFail is checkAppendJSON for a report that must not encode.
func bothFail(t *testing.T, name string, rep *Report) {
	t.Helper()
	if checkAppendJSON(t, name, rep) == nil {
		t.Errorf("%s: encoded, want an unsupported-value error", name)
	}
}

// frozenBatches builds tr's partial the way a live trace does: observed
// in small batches, frozen after each, so Figure 1 ends as several runs
// (a RunsCDF).
func frozenBatches(t *testing.T, tr *trace.Trace, batch int) *Partial {
	t.Helper()
	p, err := NewPartial(tr.Meta, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range tr.Jobs {
		p.Observe(j)
		if (i+1)%batch == 0 {
			p.Freeze()
		}
	}
	p.Freeze()
	return p
}

// edgeFloats are the formatting edges of encoding/json's float rules.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1e-9, 1e-300,
	1e21, math.Nextafter(1e21, 0), -1e21, 2.5e21, 1e300,
	1e15, 1e15 + 1, 1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), 1<<53 - 0.5,
	1 << 60, 1e17 + 16, // integral, but shortest form is not the digit run
	5e-324, 2.2250738585072014e-308, math.SmallestNonzeroFloat64 * 3,
	12345.678, 9.999999999999999e20,
}

// handBuilt is a report with every section set, its numbers drawn from
// fs in turn and its strings from words.
func handBuilt(fs []float64, words []string) *Report {
	next := func() float64 {
		f := fs[0]
		fs = append(fs[1:], f)
		return f
	}
	word := func() string {
		w := words[0]
		words = append(words[1:], w)
		return w
	}
	sample := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	return &Report{
		Summary: trace.Summary{Name: word(), Machines: 600, Length: 26*time.Hour + time.Millisecond, Jobs: 7, BytesMoved: 1 << 40},
		DataSizes: &analysis.DataSizes{
			Input:   stats.NewCDF(sample(9)),
			Shuffle: stats.NewRunsCDF([][]float64{ascending(sample(4)), {}, ascending(sample(3))}),
			Output:  nil,
		},
		InputAccess: &analysis.AccessFrequency{
			Frequencies: []uint64{math.MaxUint64, 3, 1}, Fit: stats.ZipfFit{Alpha: next(), R2: next()},
			DistinctFiles: 3, TotalAccesses: -4,
		},
		OutputAccess: &analysis.AccessFrequency{Fit: stats.ZipfFit{Alpha: next()}},
		InputSizeAccess: &analysis.SizeAccess{
			JobsCDF:     stats.NewCDF(sample(5)),
			BytesCDF:    []stats.Point{{X: next(), Y: next()}, {X: next(), Y: 1}},
			TotalStored: units.Bytes(math.MinInt64), DistinctFiles: 2,
		},
		OutputSizeAccess: &analysis.SizeAccess{JobsCDF: stats.NewCDF([]float64{1, 2, 3})},
		Intervals: &analysis.ReaccessIntervals{
			InputInput:  stats.NewCDF(sample(6)),
			OutputInput: stats.NewCDF(sample(2)),
		},
		Reaccess: &analysis.ReaccessFractions{InputReaccess: next(), OutputReaccess: next(), OutputObservable: true},
		Series: &analysis.TimeSeries{
			Start: time.Unix(1241395200, 999999999), Jobs: sample(3), Bytes: []float64{},
			TaskSeconds: nil, TaskSecondsSpread: sample(2),
		},
		PeakToMedian: next(),
		Correlations: &analysis.Correlations{JobsBytes: next(), JobsTaskSeconds: next(), BytesTaskSeconds: next()},
		Names: &analysis.NameAnalysis{
			Groups: []analysis.NameGroup{
				{Word: word(), JobsFraction: next(), BytesFraction: next(), TaskTimeFraction: next()},
				{Word: word(), JobsFraction: next()},
			},
			DistinctWords: 2,
		},
		Clusters: &analysis.JobClusters{
			Types: []analysis.JobType{{
				Count: 5, Input: 1 << 50, Shuffle: -1, Output: 0,
				Duration: time.Duration(next()), MapTime: units.TaskSeconds(next()), Reduce: units.TaskSeconds(next()),
				Label: word(),
			}},
			K: 1, SmallJobFraction: next(),
		},
	}
}

// TestAppendJSONMatchesMarshal: AppendJSON writes the bytes of
// json.Marshal(rep.JSON()) for every shape of report the server
// marshals — materialized with every section, streamed from every
// workload in both Figure 1 modes, finalized from runs, windowed, one
// job, every top — and for hand-built reports on every formatting edge,
// where an unsupported float must fail both.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	golden, err := Analyze(goldenTrace(t), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "golden FB-2009 day 1, Analyze", golden)
	withPaths := genTrace(t, "CC-b", 26*time.Hour)
	paths, err := Analyze(withPaths, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if paths.InputSizeAccess == nil || paths.Intervals == nil || paths.OutputAccess == nil || paths.Clusters == nil {
		t.Fatal("CC-b Analyze lacks the path sections or Table 2")
	}
	sameBytes(t, "CC-b Analyze, paths and Table 2", paths)

	for _, w := range []string{"CC-a", "CC-b", "CC-c", "CC-d", "CC-e", "FB-2009", "FB-2010"} {
		tr := genTrace(t, w, 30*time.Hour)
		for _, sketch := range []bool{false, true} {
			rep, err := AnalyzeSource(trace.NewSliceSource(tr), AnalyzeOptions{SketchDataSizes: sketch, TopNames: 20})
			if err != nil {
				t.Fatal(err)
			}
			sameBytes(t, w+map[bool]string{false: " exact", true: " sketch"}[sketch], rep)
		}
	}

	tr := genTrace(t, "FB-2010", 30*time.Hour)
	runs := frozenBatches(t, tr, 97)
	if _, ok := mustReport(t, runs, 8).DataSizes.Input.(*stats.RunsCDF); !ok {
		t.Fatal("a partial frozen batch by batch should finalize through RunsCDF")
	}
	for _, top := range []int{0, 1, 20, 1000} {
		sameBytes(t, "runs-backed, top "+strconv.Itoa(top), mustReport(t, runs, top))
	}
	win := tr.Window(tr.Meta.Start.Add(5*time.Hour), 6*time.Hour)
	wp, err := BuildTracePartial(win, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "6 h window", mustReport(t, wp, 8))
	one := &trace.Trace{Meta: tr.Meta, Jobs: tr.Jobs[:1]}
	op, err := BuildTracePartial(one, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "one job", mustReport(t, op, 8))

	words := []string{"a<b>&c", "line\u2028sep\u2029par", "bad\xffutf8\xc3", `quo"te\`, "", "ctrl\x01\n\t\b\f", "世界"}
	// A report takes four words, so every rotation puts each word in
	// every string field.
	for i := range words {
		sameBytes(t, "edge floats, words from "+strconv.Itoa(i), handBuilt(edgeFloats, slices.Concat(words[i:], words[:i])))
	}
	neg := make([]float64, len(edgeFloats))
	for i, f := range edgeFloats {
		neg[i] = -f
	}
	sameBytes(t, "negated edge floats", handBuilt(neg, words))
	scalars := append([]float64{math.MaxFloat64, -math.MaxFloat64}, edgeFloats...)
	sameBytes(t, "edge scalars", &Report{Series: &analysis.TimeSeries{Jobs: scalars, Bytes: neg}})
	bothFail(t, "grid past the largest double", &Report{DataSizes: &analysis.DataSizes{
		Input: stats.NewCDF([]float64{1, math.MaxFloat64}),
	}})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := range 40 {
			fs := append([]float64(nil), edgeFloats...)
			fs[i%len(fs)] = bad
			fs = append(fs[:1+i%7], fs...)
			bothFail(t, "unsupported float "+strconv.Itoa(i), handBuilt(fs, words))
		}
	}

	empty := handBuilt([]float64{1}, []string{"x"})
	empty.Names.Groups = []analysis.NameGroup{}
	empty.Clusters.Types = nil
	empty.Series.Jobs, empty.Series.Bytes = nil, nil
	empty.InputAccess.Frequencies = []uint64{}
	empty.InputSizeAccess.BytesCDF = nil
	empty.DataSizes.Input = stats.NewCDF(nil)
	empty.DataSizes.Output = stats.NewCDF([]float64{0, -1, -2})
	empty.Intervals.OutputInput = nil
	empty.PeakToMedian = math.Copysign(0, -1)
	sameBytes(t, "empty and nil sections", empty)
	empty.Names.Groups = nil
	sameBytes(t, "nil groups", empty)
	sameBytes(t, "summary only", &Report{Summary: trace.Summary{Name: "<>"}})
}

func mustReport(t *testing.T, p *Partial, top int) *Report {
	t.Helper()
	rep, err := p.Report(top)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// ascending sorts a sample into a run, dropping NaN: a RunsCDF's select
// needs ordered values.
func ascending(xs []float64) []float64 {
	xs = slices.DeleteFunc(xs, math.IsNaN)
	slices.Sort(xs)
	return xs
}

// FuzzAppendJSON: a report built from arbitrary bytes — floats from raw
// bits, strings unvalidated — encodes to json.Marshal's bytes, or both
// fail.
func FuzzAppendJSON(f *testing.F) {
	seed := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(edgeFloats...), "a<b>&c ", "bad\xff")
	f.Add(seed(1, 2, 3e10, 4e-7), "", "x")
	f.Add(seed(math.NaN()), "n", "m")
	f.Add([]byte{1, 2, 3}, "\x00", "\"")
	f.Fuzz(func(t *testing.T, raw []byte, w1, w2 string) {
		var fs []float64
		for len(raw) >= 8 {
			fs = append(fs, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		if len(fs) == 0 {
			fs = []float64{float64(len(raw))}
		}
		rep := handBuilt(fs, []string{w1, w2})
		sk := stats.NewQuantileSketch(0)
		for _, x := range fs {
			if x = math.Abs(x); x < 1e18 {
				sk.Observe(x)
			}
		}
		rep.DataSizes.Output = sk
		checkAppendJSON(t, "fuzz", rep)
	})
}

// BenchmarkReportEncode compares the two encodings of one cold top=20
// report, finalized from a frozen 7-day CC-b partial: json.Marshal of
// the JSON() tree (the reference) against AppendJSON into a reused
// buffer (what the server does).
func BenchmarkReportEncode(b *testing.B) {
	p, err := profile.ByName("CC-b")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := gen.Generate(gen.Config{Profile: p, Seed: 5, Duration: 7 * 24 * time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	part, err := BuildTracePartial(tr, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := part.Report(20)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := json.Marshal(rep.JSON()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for range b.N {
			if buf, err = rep.AppendJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
