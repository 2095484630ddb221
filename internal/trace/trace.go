// Package trace defines the workload trace model of §3: per-job summary
// records with the same schema as the Hadoop job-history logs the study
// analyzed — job ID, job name, input/shuffle/output data sizes, duration,
// submit time, map/reduce task time in slot-seconds, task counts, and
// input/output file paths. A Trace is an ordered collection of such records
// plus the cluster metadata Table 1 reports (machine count, trace length).
//
// Some production traces lacked fields (FB-2009 and CC-a have no paths;
// FB-2010 has input paths only; FB-2010 has no job names); the model keeps
// those fields optional so analyses can skip workloads exactly as the
// paper does.
package trace

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/units"
)

// Job is one MapReduce job summary record. Numerical characteristics are
// the "dimensions" of the job in the paper's terminology.
type Job struct {
	// ID is the numerical job key, unique within a trace.
	ID int64 `json:"id"`
	// Name is the user-supplied or framework-generated job name string;
	// empty when the trace omits names (FB-2010).
	Name string `json:"name,omitempty"`
	// SubmitTime is when the job entered the cluster.
	SubmitTime time.Time `json:"submit_time"`
	// Duration is the job's wall-clock makespan.
	Duration time.Duration `json:"duration"`
	// InputBytes, ShuffleBytes, OutputBytes are the data sizes counted at
	// the MapReduce API, exactly as Figure 1 plots them. Map-only jobs
	// have zero shuffle bytes.
	InputBytes   units.Bytes `json:"input_bytes"`
	ShuffleBytes units.Bytes `json:"shuffle_bytes"`
	OutputBytes  units.Bytes `json:"output_bytes"`
	// MapTime and ReduceTime are task-time in slot-seconds (Table 2).
	MapTime    units.TaskSeconds `json:"map_time"`
	ReduceTime units.TaskSeconds `json:"reduce_time"`
	// MapTasks and ReduceTasks are task counts.
	MapTasks    int `json:"map_tasks"`
	ReduceTasks int `json:"reduce_tasks"`
	// InputPath and OutputPath are (hashed) HDFS paths; empty when the
	// trace does not record them.
	InputPath  string `json:"input_path,omitempty"`
	OutputPath string `json:"output_path,omitempty"`
}

// TotalBytes is the job's aggregate I/O: input + shuffle + output, the
// quantity Figure 7's second column and Table 1's "bytes moved" use.
func (j *Job) TotalBytes() units.Bytes {
	return j.InputBytes + j.ShuffleBytes + j.OutputBytes
}

// TotalTaskTime is map + reduce task-time, Figure 7's third column.
func (j *Job) TotalTaskTime() units.TaskSeconds {
	return j.MapTime + j.ReduceTime
}

// MapOnly reports whether the job has no reduce stage.
func (j *Job) MapOnly() bool {
	return j.ReduceTasks == 0 && j.ReduceTime == 0 && j.ShuffleBytes == 0
}

// FinishTime is SubmitTime + Duration. The model treats queueing delay as
// part of Duration, as the history logs do.
func (j *Job) FinishTime() time.Time {
	return j.SubmitTime.Add(j.Duration)
}

// Features returns the six-dimensional vector of §6.2 used for k-means:
// input bytes, shuffle bytes, output bytes, duration seconds, map
// task-seconds, reduce task-seconds.
func (j *Job) Features() []float64 {
	return []float64{
		float64(j.InputBytes),
		float64(j.ShuffleBytes),
		float64(j.OutputBytes),
		j.Duration.Seconds(),
		float64(j.MapTime),
		float64(j.ReduceTime),
	}
}

// FeatureNames labels Features() indices.
var FeatureNames = [6]string{"input", "shuffle", "output", "duration", "map_time", "reduce_time"}

// Validate checks internal consistency of a single record.
func (j *Job) Validate() error {
	switch {
	case j.ID < 0:
		return fmt.Errorf("trace: job %d: negative ID", j.ID)
	case j.InputBytes < 0 || j.ShuffleBytes < 0 || j.OutputBytes < 0:
		return fmt.Errorf("trace: job %d: negative data size", j.ID)
	case j.Duration < 0:
		return fmt.Errorf("trace: job %d: negative duration", j.ID)
	case j.MapTime < 0 || j.ReduceTime < 0:
		return fmt.Errorf("trace: job %d: negative task time", j.ID)
	case j.MapTasks < 0 || j.ReduceTasks < 0:
		return fmt.Errorf("trace: job %d: negative task count", j.ID)
	case j.SubmitTime.IsZero():
		return fmt.Errorf("trace: job %d: zero submit time", j.ID)
	}
	if err := CheckNanoRange(j.SubmitTime); err != nil {
		return fmt.Errorf("trace: job %d: submit time %w", j.ID, err)
	}
	return nil
}

// CheckNanoRange rejects a time that int64 Unix nanoseconds cannot
// hold, one outside 1677-09-21..2262-04-11. Stored traces persist Unix
// nanoseconds (the manifest, the snapshot, the series origin, the
// cluster record), which wrap outside those years and would change a
// report across a restart; Validate holds job submit times to it, and
// swimd's write paths a header's start and end.
func CheckNanoRange(t time.Time) error {
	if time.Unix(0, t.UnixNano()).Equal(t) {
		return nil
	}
	return fmt.Errorf("%s is outside 1677-09-21..2262-04-11, the range of int64 Unix nanoseconds", t.Format(time.RFC3339Nano))
}

// Meta is the per-trace metadata of Table 1.
type Meta struct {
	// Name identifies the workload (e.g. "FB-2009", "CC-b").
	Name string `json:"name"`
	// Machines is the cluster size the trace was collected on.
	Machines int `json:"machines"`
	// Start is the trace collection start.
	Start time.Time `json:"start"`
	// Length is the trace duration.
	Length time.Duration `json:"length"`
}

// FillFromSpan completes a header that leaves the trace's extent out
// (CSV carries none) from its jobs' span, as Trace.Span returns it: a
// zero Start becomes start and a non-positive Length runs to end.
func (m *Meta) FillFromSpan(start, end time.Time) {
	if m.Start.IsZero() {
		m.Start = start
	}
	if m.Length <= 0 {
		m.Length = end.Sub(m.Start)
	}
}

// Trace is a workload: metadata plus jobs ordered by submit time.
type Trace struct {
	Meta Meta
	Jobs []*Job
}

// New creates an empty trace with the given metadata.
func New(meta Meta) *Trace {
	return &Trace{Meta: meta}
}

// Add appends a job. Callers should Sort() after bulk insertion if order
// is not already chronological.
func (t *Trace) Add(j *Job) {
	t.Jobs = append(t.Jobs, j)
}

// Len returns the number of jobs.
func (t *Trace) Len() int { return len(t.Jobs) }

// Sort orders jobs by submit time, breaking ties by ID for determinism.
func (t *Trace) Sort() {
	sort.SliceStable(t.Jobs, func(i, k int) bool {
		a, b := t.Jobs[i], t.Jobs[k]
		if !a.SubmitTime.Equal(b.SubmitTime) {
			return a.SubmitTime.Before(b.SubmitTime)
		}
		return a.ID < b.ID
	})
}

// Validate checks every record and the chronological ordering.
func (t *Trace) Validate() error {
	if t.Meta.Name == "" {
		return fmt.Errorf("trace: missing workload name")
	}
	for i, j := range t.Jobs {
		if j == nil {
			return fmt.Errorf("trace: nil job at index %d", i)
		}
		if err := j.Validate(); err != nil {
			return err
		}
		if i > 0 && j.SubmitTime.Before(t.Jobs[i-1].SubmitTime) {
			return fmt.Errorf("trace: job %d out of chronological order", j.ID)
		}
	}
	return nil
}

// Window returns a new Trace containing the jobs submitted in
// [start, start+length), sharing job pointers with the original. Window is
// how weekly views (Fig 7) and SWIM's sampled scale-down (§7) slice traces.
func (t *Trace) Window(start time.Time, length time.Duration) *Trace {
	end := start.Add(length)
	out := New(t.Meta)
	out.Meta.Start = start
	out.Meta.Length = length
	for _, j := range t.Jobs {
		if !j.SubmitTime.Before(start) && j.SubmitTime.Before(end) {
			out.Jobs = append(out.Jobs, j)
		}
	}
	return out
}

// Filter returns a new Trace with the jobs for which keep returns true,
// sharing job pointers with the original.
func (t *Trace) Filter(keep func(*Job) bool) *Trace {
	out := New(t.Meta)
	for _, j := range t.Jobs {
		if keep(j) {
			out.Jobs = append(out.Jobs, j)
		}
	}
	return out
}

// Span returns the time range [first submit, last finish] of the trace.
// For an empty trace it returns zero times.
func (t *Trace) Span() (start, end time.Time) {
	if len(t.Jobs) == 0 {
		return time.Time{}, time.Time{}
	}
	start = t.Jobs[0].SubmitTime
	for _, j := range t.Jobs {
		if j.SubmitTime.Before(start) {
			start = j.SubmitTime
		}
		if f := j.FinishTime(); f.After(end) {
			end = f
		}
	}
	return start, end
}

// Summary is one Table-1 row: the headline statistics of a workload.
type Summary struct {
	Name       string
	Machines   int
	Length     time.Duration
	Jobs       int
	BytesMoved units.Bytes
}

// Summarize computes the Table-1 row for the trace. "Bytes moved is
// computed by sum of input, shuffle, and output data sizes for all jobs."
func (t *Trace) Summarize() Summary {
	s := Summary{
		Name:     t.Meta.Name,
		Machines: t.Meta.Machines,
		Length:   t.Meta.Length,
		Jobs:     len(t.Jobs),
	}
	for _, j := range t.Jobs {
		s.BytesMoved += j.TotalBytes()
	}
	return s
}

// HasPaths reports whether any job in the trace carries input path
// information. The paper's Figures 2–6 are computed only over traces that
// do (§4.2: "The FB-2009 and CC-a traces do not contain path names").
func (t *Trace) HasPaths() bool {
	for _, j := range t.Jobs {
		if j.InputPath != "" {
			return true
		}
	}
	return false
}

// HasOutputPaths reports whether output path information is present
// (FB-2010 carries input paths only).
func (t *Trace) HasOutputPaths() bool {
	for _, j := range t.Jobs {
		if j.OutputPath != "" {
			return true
		}
	}
	return false
}

// HasNames reports whether job name strings are present (absent from
// FB-2010, Fig 10 caption).
func (t *Trace) HasNames() bool {
	for _, j := range t.Jobs {
		if j.Name != "" {
			return true
		}
	}
	return false
}
