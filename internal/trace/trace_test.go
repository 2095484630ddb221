package trace

import (
	"math"
	"testing"
	"time"

	"repro/internal/units"
)

var t0 = time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)

func mkJob(id int64, offset time.Duration) *Job {
	return &Job{
		ID:           id,
		Name:         "insert",
		SubmitTime:   t0.Add(offset),
		Duration:     30 * time.Second,
		InputBytes:   100 * units.MB,
		ShuffleBytes: 10 * units.MB,
		OutputBytes:  1 * units.MB,
		MapTime:      120,
		ReduceTime:   40,
		MapTasks:     4,
		ReduceTasks:  1,
		InputPath:    "/data/in",
		OutputPath:   "/data/out",
	}
}

func TestJobDerived(t *testing.T) {
	j := mkJob(1, 0)
	if got := j.TotalBytes(); got != 111*units.MB {
		t.Errorf("TotalBytes = %v, want 111 MB", got)
	}
	if got := j.TotalTaskTime(); got != 160 {
		t.Errorf("TotalTaskTime = %v, want 160", got)
	}
	if j.MapOnly() {
		t.Error("job with reduce should not be map-only")
	}
	mo := &Job{ID: 2, SubmitTime: t0, MapTasks: 3, MapTime: 10}
	if !mo.MapOnly() {
		t.Error("job without reduce should be map-only")
	}
	if got := j.FinishTime(); !got.Equal(t0.Add(30 * time.Second)) {
		t.Errorf("FinishTime = %v", got)
	}
	f := j.Features()
	if len(f) != 6 {
		t.Fatalf("Features len = %d, want 6", len(f))
	}
	if f[0] != 1e8 || f[3] != 30 || f[5] != 40 {
		t.Errorf("Features = %v", f)
	}
}

func TestJobValidate(t *testing.T) {
	good := mkJob(1, 0)
	if err := good.Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Job)
	}{
		{"negative id", func(j *Job) { j.ID = -1 }},
		{"negative input", func(j *Job) { j.InputBytes = -1 }},
		{"negative shuffle", func(j *Job) { j.ShuffleBytes = -1 }},
		{"negative output", func(j *Job) { j.OutputBytes = -1 }},
		{"negative duration", func(j *Job) { j.Duration = -time.Second }},
		{"negative map time", func(j *Job) { j.MapTime = -1 }},
		{"negative reduce time", func(j *Job) { j.ReduceTime = -1 }},
		{"negative map tasks", func(j *Job) { j.MapTasks = -1 }},
		{"negative reduce tasks", func(j *Job) { j.ReduceTasks = -1 }},
		{"zero submit", func(j *Job) { j.SubmitTime = time.Time{} }},
		{"submit past 2262", func(j *Job) { j.SubmitTime = j.SubmitTime.AddDate(380, 0, 0) }},
		{"submit before 1678", func(j *Job) { j.SubmitTime = j.SubmitTime.AddDate(-380, 0, 0) }},
	}
	for _, c := range cases {
		j := mkJob(1, 0)
		c.mut(j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// TestCheckNanoRange: the range is exactly what int64 Unix nanoseconds
// hold, to the nanosecond at both ends.
func TestCheckNanoRange(t *testing.T) {
	first, last := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	for _, c := range []struct {
		t  time.Time
		ok bool
	}{
		{t0, true},
		{first, true},
		{last, true},
		{first.Add(-time.Nanosecond), false},
		{last.Add(time.Nanosecond), false},
		{time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC), false},
	} {
		if err := CheckNanoRange(c.t); (err == nil) != c.ok {
			t.Errorf("CheckNanoRange(%s) = %v, want ok %v", c.t.Format(time.RFC3339Nano), err, c.ok)
		}
	}
}

func TestTraceSortAndValidate(t *testing.T) {
	tr := New(Meta{Name: "test", Machines: 10, Start: t0, Length: time.Hour})
	tr.Add(mkJob(3, 2*time.Minute))
	tr.Add(mkJob(1, 0))
	tr.Add(mkJob(2, time.Minute))
	if err := tr.Validate(); err == nil {
		t.Error("out-of-order trace should fail validation")
	}
	tr.Sort()
	if err := tr.Validate(); err != nil {
		t.Errorf("sorted trace failed validation: %v", err)
	}
	if tr.Jobs[0].ID != 1 || tr.Jobs[2].ID != 3 {
		t.Error("Sort did not order by submit time")
	}
}

func TestTraceSortTieBreak(t *testing.T) {
	tr := New(Meta{Name: "t", Start: t0})
	tr.Add(mkJob(5, 0))
	tr.Add(mkJob(2, 0))
	tr.Sort()
	if tr.Jobs[0].ID != 2 {
		t.Error("ties should break by ID")
	}
}

func TestTraceValidateErrors(t *testing.T) {
	tr := New(Meta{})
	if err := tr.Validate(); err == nil {
		t.Error("missing name should fail")
	}
	tr = New(Meta{Name: "x"})
	tr.Jobs = append(tr.Jobs, nil)
	if err := tr.Validate(); err == nil {
		t.Error("nil job should fail")
	}
}

func TestWindow(t *testing.T) {
	tr := New(Meta{Name: "test", Start: t0, Length: 3 * time.Hour})
	for i := 0; i < 180; i++ {
		tr.Add(mkJob(int64(i), time.Duration(i)*time.Minute))
	}
	w := tr.Window(t0.Add(time.Hour), time.Hour)
	if w.Len() != 60 {
		t.Errorf("window has %d jobs, want 60", w.Len())
	}
	for _, j := range w.Jobs {
		if j.SubmitTime.Before(t0.Add(time.Hour)) || !j.SubmitTime.Before(t0.Add(2*time.Hour)) {
			t.Fatalf("job %d outside window", j.ID)
		}
	}
	if w.Meta.Length != time.Hour {
		t.Errorf("window meta length = %v", w.Meta.Length)
	}
}

func TestFilter(t *testing.T) {
	tr := New(Meta{Name: "test", Start: t0})
	for i := 0; i < 10; i++ {
		j := mkJob(int64(i), time.Duration(i)*time.Second)
		if i%2 == 0 {
			j.ReduceTasks, j.ReduceTime, j.ShuffleBytes = 0, 0, 0
		}
		tr.Add(j)
	}
	mapOnly := tr.Filter(func(j *Job) bool { return j.MapOnly() })
	if mapOnly.Len() != 5 {
		t.Errorf("filtered %d jobs, want 5", mapOnly.Len())
	}
}

func TestSpan(t *testing.T) {
	tr := New(Meta{Name: "test", Start: t0})
	start, end := tr.Span()
	if !start.IsZero() || !end.IsZero() {
		t.Error("empty trace span should be zero")
	}
	tr.Add(mkJob(1, 0))
	tr.Add(mkJob(2, 10*time.Minute))
	start, end = tr.Span()
	if !start.Equal(t0) {
		t.Errorf("span start = %v", start)
	}
	if !end.Equal(t0.Add(10*time.Minute + 30*time.Second)) {
		t.Errorf("span end = %v", end)
	}
}

func TestSummarize(t *testing.T) {
	tr := New(Meta{Name: "CC-x", Machines: 100, Start: t0, Length: 24 * time.Hour})
	tr.Add(mkJob(1, 0))
	tr.Add(mkJob(2, time.Hour))
	s := tr.Summarize()
	if s.Name != "CC-x" || s.Machines != 100 || s.Jobs != 2 {
		t.Errorf("summary = %+v", s)
	}
	if s.BytesMoved != 222*units.MB {
		t.Errorf("BytesMoved = %v, want 222 MB", s.BytesMoved)
	}
}

func TestHasFields(t *testing.T) {
	tr := New(Meta{Name: "x", Start: t0})
	if tr.HasPaths() || tr.HasNames() || tr.HasOutputPaths() {
		t.Error("empty trace should have no fields")
	}
	j := mkJob(1, 0)
	j.InputPath, j.OutputPath, j.Name = "", "", ""
	tr.Add(j)
	if tr.HasPaths() || tr.HasNames() || tr.HasOutputPaths() {
		t.Error("fieldless job should not set flags")
	}
	j2 := mkJob(2, time.Second)
	j2.OutputPath = ""
	tr.Add(j2)
	if !tr.HasPaths() || !tr.HasNames() {
		t.Error("flags should detect populated fields")
	}
	if tr.HasOutputPaths() {
		t.Error("no output paths present")
	}
}
