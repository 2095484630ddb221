package analysis

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/units"
)

var mergeStart = time.Date(2009, 5, 1, 0, 0, 0, 0, time.UTC)

// mergeJob builds one job at minute m with the given sizes and task
// seconds; duration controls how far the execution window spreads.
func mergeJob(id int64, m int, in, sh, out units.Bytes, task float64, dur time.Duration) *trace.Job {
	return &trace.Job{
		ID:           id,
		Name:         []string{"ad hoc", "insert", "Metrics42", "ETL-load"}[id%4],
		SubmitTime:   mergeStart.Add(time.Duration(m) * time.Minute),
		Duration:     dur,
		InputBytes:   in,
		ShuffleBytes: sh,
		OutputBytes:  out,
		MapTime:      units.TaskSeconds(task * 0.7),
		ReduceTime:   units.TaskSeconds(task * 0.3),
	}
}

// randomJobs generates n jobs over `length` with irregular fractional
// task-times — the values where naive float accumulation drifts.
func randomJobs(n int, length time.Duration, seed int64) []*trace.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*trace.Job, n)
	minutes := int(length.Minutes())
	for i := range jobs {
		m := i * minutes / n
		task := math.Pow(10, rng.Float64()*6) / 3.0
		dur := time.Duration(1+rng.Intn(5*3600)) * time.Second
		jobs[i] = mergeJob(int64(i), m,
			units.Bytes(rng.Int63n(1e12)), units.Bytes(rng.Int63n(1e9)), units.Bytes(rng.Int63n(1e10)),
			task, dur)
	}
	return jobs
}

// buildSeries observes jobs[lo:hi] into a fresh TimeSeriesBuilder.
func buildSeries(t *testing.T, jobs []*trace.Job, lo, hi int, length time.Duration) *TimeSeriesBuilder {
	t.Helper()
	b, err := NewTimeSeriesBuilder("w", mergeStart, length)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[lo:hi] {
		b.Observe(j)
	}
	return b
}

func assertSeriesEqual(t *testing.T, name string, want, got *TimeSeries) {
	t.Helper()
	for dim, pair := range map[string][2][]float64{
		"jobs":   {want.Jobs, got.Jobs},
		"bytes":  {want.Bytes, got.Bytes},
		"task":   {want.TaskSeconds, got.TaskSeconds},
		"spread": {want.TaskSecondsSpread, got.TaskSecondsSpread},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: %s length %d != %d", name, dim, len(pair[1]), len(pair[0]))
		}
		for h := range pair[0] {
			if math.Float64bits(pair[0][h]) != math.Float64bits(pair[1][h]) {
				t.Fatalf("%s: %s[%d]: merged %v != sequential %v", name, dim, h, pair[1][h], pair[0][h])
			}
		}
	}
}

// TestTimeSeriesMergeBoundaryHour is the shard-boundary regression: a
// shard split in the middle of an hour must neither double-count nor
// drop that hour. Both shards contribute jobs (and execution-spread
// task-time from a long job in the earlier shard) to the same bins, and
// the merged series must be bit-identical to the sequential one.
func TestTimeSeriesMergeBoundaryHour(t *testing.T) {
	length := 4 * time.Hour
	jobs := []*trace.Job{
		// Hour 0, shard 1 only.
		mergeJob(0, 5, 100, 10, 1, 1000.5, 10*time.Minute),
		// Hour 1 straddles the shard boundary: jobs 1-2 land in shard 1,
		// job 3 in shard 2, all binned into hour 1.
		mergeJob(1, 70, 200, 20, 2, 81.25, 5*time.Minute),
		mergeJob(2, 80, 300, 30, 3, 1.0/3.0, 2*time.Minute),
		// Long job in shard 1 whose execution window spreads across the
		// boundary into hours 1-3.
		mergeJob(3, 95, 400, 40, 4, 7777.75, 150*time.Minute),
		mergeJob(4, 110, 500, 50, 5, 12.5, time.Minute),
		// Hours 2-3, shard 2 only.
		mergeJob(5, 130, 600, 60, 6, 999.125, 30*time.Minute),
		mergeJob(6, 200, 700, 70, 7, 1e6/7.0, time.Hour),
	}
	for split := 1; split < len(jobs); split++ {
		seq := buildSeries(t, jobs, 0, len(jobs), length)
		a := buildSeries(t, jobs, 0, split, length)
		b := buildSeries(t, jobs, split, len(jobs), length)
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		assertSeriesEqual(t, "boundary", seq.Series(), a.Series())
	}

	// Totals conserved: the merged spread series carries exactly the sum
	// of all task-time, once.
	var wantTotal float64
	for _, j := range jobs {
		wantTotal += float64(j.TotalTaskTime())
	}
	merged := buildSeries(t, jobs, 0, 3, length)
	rest := buildSeries(t, jobs, 3, len(jobs), length)
	if err := merged.Merge(rest); err != nil {
		t.Fatal(err)
	}
	var gotTotal float64
	for _, v := range merged.Series().TaskSecondsSpread {
		gotTotal += v
	}
	if math.Abs(gotTotal-wantTotal) > 1e-6*wantTotal {
		t.Fatalf("spread total %v after merge, want %v (double-counted or dropped at the boundary)", gotTotal, wantTotal)
	}
}

// TestTimeSeriesMergeRandomSharding: on an irregular random workload,
// any contiguous sharding merged in shard order reproduces the
// sequential series bit-for-bit.
func TestTimeSeriesMergeRandomSharding(t *testing.T) {
	length := 26 * time.Hour
	jobs := randomJobs(500, length, 11)
	seq := buildSeries(t, jobs, 0, len(jobs), length).Series()
	for _, k := range []int{2, 3, 7, 16} {
		var merged *TimeSeriesBuilder
		for i := 0; i < k; i++ {
			lo, hi := i*len(jobs)/k, (i+1)*len(jobs)/k
			shard := buildSeries(t, jobs, lo, hi, length)
			if merged == nil {
				merged = shard
				continue
			}
			if err := merged.Merge(shard); err != nil {
				t.Fatal(err)
			}
		}
		assertSeriesEqual(t, "random", seq, merged.Series())
	}
}

// TestTimeSeriesMergeMismatch: builders over different origins or hour
// counts refuse to merge.
func TestTimeSeriesMergeMismatch(t *testing.T) {
	a, err := NewTimeSeriesBuilder("w", mergeStart, 4*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTimeSeriesBuilder("w", mergeStart, 9*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Fatal("merging series of different lengths did not error")
	}
	c, err := NewTimeSeriesBuilder("w", mergeStart.Add(time.Hour), 4*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(c); err == nil {
		t.Fatal("merging series of different origins did not error")
	}
}

// TestDataSizeMergeMatchesSequential covers both exact and sketch modes.
func TestDataSizeMergeMatchesSequential(t *testing.T) {
	jobs := randomJobs(400, 26*time.Hour, 23)
	for _, sketch := range []bool{false, true} {
		seqB := NewDataSizeBuilder("w", sketch)
		for _, j := range jobs {
			seqB.Observe(j)
		}
		seq, err := seqB.Result()
		if err != nil {
			t.Fatal(err)
		}
		merged := NewDataSizeBuilder("w", sketch)
		for _, k := range []int{0, 1, 2} {
			shard := NewDataSizeBuilder("w", sketch)
			for _, j := range jobs[k*len(jobs)/3 : (k+1)*len(jobs)/3] {
				shard.Observe(j)
			}
			if err := merged.Merge(shard); err != nil {
				t.Fatal(err)
			}
		}
		got, err := merged.Result()
		if err != nil {
			t.Fatal(err)
		}
		for q := 0.0; q <= 1.0; q += 0.05 {
			for dim, pair := range map[string][2]float64{
				"input":   {seq.Input.Quantile(q), got.Input.Quantile(q)},
				"shuffle": {seq.Shuffle.Quantile(q), got.Shuffle.Quantile(q)},
				"output":  {seq.Output.Quantile(q), got.Output.Quantile(q)},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("sketch=%v %s Quantile(%.2f): merged %v != sequential %v", sketch, dim, q, pair[1], pair[0])
				}
			}
		}
	}

	// Mode and workload mismatches refuse.
	if err := NewDataSizeBuilder("w", false).Merge(NewDataSizeBuilder("w", true)); err == nil {
		t.Fatal("merging exact with sketch builder did not error")
	}
	if err := NewDataSizeBuilder("a", false).Merge(NewDataSizeBuilder("b", false)); err == nil {
		t.Fatal("merging different workloads did not error")
	}
}

// TestNamesMergeMatchesSequential: merged name buckets reproduce the
// sequential Figure 10 exactly, including the named-trace flag and the
// [others] aggregation.
func TestNamesMergeMatchesSequential(t *testing.T) {
	jobs := randomJobs(300, 26*time.Hour, 31)
	seqB := NewNamesBuilder("w")
	for _, j := range jobs {
		seqB.Observe(j)
	}
	seq, err := seqB.Result(3)
	if err != nil {
		t.Fatal(err)
	}
	merged := NewNamesBuilder("w")
	for k := 0; k < 4; k++ {
		shard := NewNamesBuilder("w")
		for _, j := range jobs[k*len(jobs)/4 : (k+1)*len(jobs)/4] {
			shard.Observe(j)
		}
		if err := merged.Merge(shard); err != nil {
			t.Fatal(err)
		}
	}
	got, err := merged.Result(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, got) {
		t.Fatalf("merged name analysis differs:\nsequential %+v\nmerged     %+v", seq, got)
	}

	// A shard with only unnamed jobs must not clear the named flag.
	unnamed := NewNamesBuilder("w")
	unnamed.Observe(&trace.Job{ID: 1, SubmitTime: mergeStart})
	if err := merged.Merge(unnamed); err != nil {
		t.Fatal(err)
	}
	if _, err := merged.Result(3); err != nil {
		t.Fatalf("named trace turned nameless after merging an unnamed shard: %v", err)
	}
	if err := merged.Merge(NewNamesBuilder("other")); err == nil {
		t.Fatal("merging different workloads did not error")
	}
}

// TestMergeIntoMatchesSort pins the in-place merge behind Freeze and
// frozen Merge against a plain sort: two ascending runs, or a run and
// an unsorted tail, with long runs of the minimum, duplicates and empty
// sides, merge to the sorted concatenation.
func TestMergeIntoMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	run := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			if rng.Intn(3) > 0 {
				s[i] = float64(rng.Intn(50))
			}
		}
		slices.Sort(s)
		return s
	}
	for trial := 0; trial < 500; trial++ {
		a, b := run(rng.Intn(40)), run(rng.Intn(40))
		want := append(slices.Clone(a), b...)
		slices.Sort(want)
		if got := mergeInto(slices.Clone(a), b); !slices.Equal(got, want) {
			t.Fatalf("mergeInto(%v, %v) = %v, want %v", a, b, got, want)
		}
		col := append(slices.Clone(a), b...)
		rng.Shuffle(len(b), func(i, j int) { col[len(a)+i], col[len(a)+j] = col[len(a)+j], col[len(a)+i] })
		mergeTail(col, len(a))
		if !slices.Equal(col, want) {
			t.Fatalf("mergeTail(%v | %v) = %v, want %v", a, b, col, want)
		}
	}
}
