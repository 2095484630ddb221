package analysis

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/trace"
	"repro/internal/units"
)

func encodeJobs(t *testing.T) []*trace.Job {
	t.Helper()
	start := time.Date(2009, 5, 1, 0, 0, 0, 0, time.UTC)
	jobs := make([]*trace.Job, 0, 50)
	for i := 0; i < 50; i++ {
		name := "pipeline_daily"
		if i%3 == 0 {
			name = "AdHoc Query 7"
		}
		jobs = append(jobs, &trace.Job{
			ID:           int64(i),
			Name:         name,
			SubmitTime:   start.Add(time.Duration(i) * 7 * time.Minute),
			Duration:     time.Duration(i%11+1) * time.Minute,
			InputBytes:   units.Bytes(1 << (i % 40)),
			ShuffleBytes: units.Bytes(i * 1000),
			OutputBytes:  units.Bytes(i * 77),
			MapTime:      units.TaskSeconds(float64(i) * 1.25),
			ReduceTime:   units.TaskSeconds(float64(i) * 0.3),
			MapTasks:     i + 1,
			ReduceTasks:  i % 4,
		})
	}
	return jobs
}

func TestDataSizeBuilderEncodeRoundTrip(t *testing.T) {
	for _, sketch := range []bool{false, true} {
		b := NewDataSizeBuilder("FB-2009", sketch)
		for _, j := range encodeJobs(t) {
			b.Observe(j)
		}
		enc := b.AppendBinary(nil)
		if len(enc) > b.EncodedSize() {
			t.Fatalf("sketch=%v: encoded %d bytes past the %d-byte bound", sketch, len(enc), b.EncodedSize())
		}
		r := binenc.NewReader(enc)
		got, err := ReadDataSizeBuilder(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("sketch=%v: %v", sketch, err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("sketch=%v: %d trailing bytes", sketch, r.Remaining())
		}
		want, err := b.Result()
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Result()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
			if want.Input.Quantile(q) != have.Input.Quantile(q) ||
				want.Shuffle.Quantile(q) != have.Shuffle.Quantile(q) ||
				want.Output.Quantile(q) != have.Output.Quantile(q) {
				t.Errorf("sketch=%v: quantile %g drifted", sketch, q)
			}
		}
	}
}

func TestTimeSeriesBuilderEncodeRoundTrip(t *testing.T) {
	start := time.Date(2009, 5, 1, 0, 0, 0, 0, time.UTC)
	b, err := NewTimeSeriesBuilder("FB-2009", start, 7*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range encodeJobs(t) {
		b.Observe(j)
	}
	r := binenc.NewReader(b.AppendBinary(nil))
	got := ReadTimeSeriesBuilder(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Series(), got.Series()) {
		t.Error("series drifted through encode/decode")
	}
	// The decoded builder still merges with a live one.
	live, err := NewTimeSeriesBuilder("FB-2009", start, 7*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Merge(live); err != nil {
		t.Errorf("decoded builder cannot merge: %v", err)
	}
}

func TestNamesBuilderEncodeRoundTrip(t *testing.T) {
	b := NewNamesBuilder("FB-2009")
	for _, j := range encodeJobs(t) {
		b.Observe(j)
	}
	r := binenc.NewReader(b.AppendBinary(nil))
	got, err := ReadNamesBuilder(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	want, err := b.Result(8)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Result(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, have) {
		t.Errorf("name analysis drifted:\n%+v\nvs\n%+v", want, have)
	}
}

func TestNamesBuilderEncodeDeterministic(t *testing.T) {
	// Map iteration order must not leak into the encoding.
	mk := func() []byte {
		b := NewNamesBuilder("x")
		for _, j := range encodeJobs(t) {
			b.Observe(j)
		}
		return b.AppendBinary(nil)
	}
	first := mk()
	for i := 0; i < 5; i++ {
		if !reflect.DeepEqual(first, mk()) {
			t.Fatal("encoding varies across runs")
		}
	}
}
