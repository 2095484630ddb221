package core

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/stats"
)

// JSON export of a Report. The in-memory Report is built for Go callers
// — distributions are behind the stats.Distribution interface, durations
// are time.Duration — so it does not json.Marshal usefully. ReportJSON
// is the wire form the serving layer returns: every section the report
// carries, flattened to plain numbers and point lists, with absent
// sections omitted (mirroring the nil-section convention of Report).
// Distributions are exported as summary quantiles plus the same
// log-spaced CDF points ExportCSV writes, so any client can re-plot the
// paper's figures from one response.
//
// The *JSON types and JSON() are the reference encoding: the wire bytes
// are defined as json.Marshal(r.JSON()). Clients decode into them, and
// tests and bench/ marshal them with encoding/json to check the bytes
// the server writes. The server itself, and WriteJSON, encode through
// Report.AppendJSON (append_json.go), which writes those same bytes
// straight from the Report.

// PointJSON is one (x, cumulative fraction) CDF sample.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// DistributionJSON summarizes one empirical distribution.
type DistributionJSON struct {
	Count  int     `json:"count"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	// Points samples the CDF at 10 points per decade over the positive
	// support, matching the paper's log x-axes.
	Points []PointJSON `json:"points,omitempty"`
}

// SummaryJSON is the Table-1 row.
type SummaryJSON struct {
	Name       string `json:"name"`
	Machines   int    `json:"machines,omitempty"`
	LengthMS   int64  `json:"length_ms"`
	Jobs       int    `json:"jobs"`
	BytesMoved int64  `json:"bytes_moved"`
}

// DataSizesJSON is Figure 1.
type DataSizesJSON struct {
	Input   *DistributionJSON `json:"input"`
	Shuffle *DistributionJSON `json:"shuffle"`
	Output  *DistributionJSON `json:"output"`
}

// AccessFrequencyJSON is one Figure 2 panel.
type AccessFrequencyJSON struct {
	ZipfAlpha     float64  `json:"zipf_alpha"`
	ZipfR2        float64  `json:"zipf_r2"`
	DistinctFiles int      `json:"distinct_files"`
	TotalAccesses int      `json:"total_accesses"`
	Frequencies   []uint64 `json:"frequencies"`
}

// SizeAccessJSON is one Figure 3/4 panel.
type SizeAccessJSON struct {
	JobsCDF       *DistributionJSON `json:"jobs_cdf"`
	BytesCDF      []PointJSON       `json:"bytes_cdf"`
	TotalStored   int64             `json:"total_stored_bytes"`
	DistinctFiles int               `json:"distinct_files"`
	EightyRule    float64           `json:"eighty_rule"`
}

// IntervalsJSON is Figure 5.
type IntervalsJSON struct {
	InputInput  *DistributionJSON `json:"input_input"`
	OutputInput *DistributionJSON `json:"output_input,omitempty"`
	Within6h    float64           `json:"fraction_within_6h"`
}

// ReaccessJSON is Figure 6.
type ReaccessJSON struct {
	InputReaccess    float64 `json:"input_reaccess"`
	OutputReaccess   float64 `json:"output_reaccess"`
	OutputObservable bool    `json:"output_observable"`
}

// SeriesJSON is the hourly view behind Figures 7-9.
type SeriesJSON struct {
	StartUnixMS       int64     `json:"start_unix_ms"`
	Jobs              []float64 `json:"jobs"`
	Bytes             []float64 `json:"bytes"`
	TaskSeconds       []float64 `json:"task_seconds"`
	TaskSecondsSpread []float64 `json:"task_seconds_spread"`
}

// CorrelationsJSON is Figure 9.
type CorrelationsJSON struct {
	JobsBytes        float64 `json:"jobs_bytes"`
	JobsTaskSeconds  float64 `json:"jobs_task_seconds"`
	BytesTaskSeconds float64 `json:"bytes_task_seconds"`
}

// NameGroupJSON is one Figure 10 bar.
type NameGroupJSON struct {
	Word             string  `json:"word"`
	JobsFraction     float64 `json:"jobs_fraction"`
	BytesFraction    float64 `json:"bytes_fraction"`
	TaskTimeFraction float64 `json:"task_time_fraction"`
}

// NamesJSON is Figure 10.
type NamesJSON struct {
	Groups        []NameGroupJSON `json:"groups"`
	DistinctWords int             `json:"distinct_words"`
}

// JobTypeJSON is one Table 2 row.
type JobTypeJSON struct {
	Count       int     `json:"count"`
	Input       int64   `json:"input_bytes"`
	Shuffle     int64   `json:"shuffle_bytes"`
	Output      int64   `json:"output_bytes"`
	DurationSec float64 `json:"duration_seconds"`
	MapTime     float64 `json:"map_task_seconds"`
	ReduceTime  float64 `json:"reduce_task_seconds"`
	Label       string  `json:"label"`
}

// ClustersJSON is Table 2.
type ClustersJSON struct {
	Types            []JobTypeJSON `json:"types"`
	K                int           `json:"k"`
	SmallJobFraction float64       `json:"small_job_fraction"`
}

// ReportJSON is the serializable form of a full Report.
type ReportJSON struct {
	Summary          SummaryJSON          `json:"summary"`
	DataSizes        *DataSizesJSON       `json:"data_sizes,omitempty"`
	InputAccess      *AccessFrequencyJSON `json:"input_access,omitempty"`
	OutputAccess     *AccessFrequencyJSON `json:"output_access,omitempty"`
	InputSizeAccess  *SizeAccessJSON      `json:"input_size_access,omitempty"`
	OutputSizeAccess *SizeAccessJSON      `json:"output_size_access,omitempty"`
	Intervals        *IntervalsJSON       `json:"reaccess_intervals,omitempty"`
	Reaccess         *ReaccessJSON        `json:"reaccess_fractions,omitempty"`
	Series           *SeriesJSON          `json:"hourly_series,omitempty"`
	PeakToMedian     float64              `json:"peak_to_median,omitempty"`
	Correlations     *CorrelationsJSON    `json:"correlations,omitempty"`
	Names            *NamesJSON           `json:"job_names,omitempty"`
	Clusters         *ClustersJSON        `json:"job_clusters,omitempty"`
}

// distJSON flattens a Distribution; nil in, nil out.
func distJSON(d stats.Distribution) *DistributionJSON {
	if d == nil {
		return nil
	}
	out := &DistributionJSON{
		Count:  d.Len(),
		Min:    d.Min(),
		Max:    d.Max(),
		P25:    d.Quantile(0.25),
		Median: d.Median(),
		P75:    d.Quantile(0.75),
		P90:    d.Quantile(0.90),
		P99:    d.Quantile(0.99),
	}
	for _, p := range d.LogPoints(10) {
		out.Points = append(out.Points, PointJSON{X: p.X, Y: p.Y})
	}
	return out
}

func pointsJSON(ps []stats.Point) []PointJSON {
	out := make([]PointJSON, len(ps))
	for i, p := range ps {
		out[i] = PointJSON{X: p.X, Y: p.Y}
	}
	return out
}

func accessJSON(af *analysis.AccessFrequency) *AccessFrequencyJSON {
	if af == nil {
		return nil
	}
	return &AccessFrequencyJSON{
		ZipfAlpha:     af.Fit.Alpha,
		ZipfR2:        af.Fit.R2,
		DistinctFiles: af.DistinctFiles,
		TotalAccesses: af.TotalAccesses,
		Frequencies:   af.Frequencies,
	}
}

func sizeAccessJSON(sa *analysis.SizeAccess) *SizeAccessJSON {
	if sa == nil {
		return nil
	}
	return &SizeAccessJSON{
		JobsCDF:       distJSON(sa.JobsCDF),
		BytesCDF:      pointsJSON(sa.BytesCDF),
		TotalStored:   int64(sa.TotalStored),
		DistinctFiles: sa.DistinctFiles,
		EightyRule:    sa.EightyRule(),
	}
}

// JSON converts the report to its serializable wire form.
func (r *Report) JSON() *ReportJSON {
	out := &ReportJSON{
		Summary: SummaryJSON{
			Name:       r.Summary.Name,
			Machines:   r.Summary.Machines,
			LengthMS:   r.Summary.Length.Milliseconds(),
			Jobs:       r.Summary.Jobs,
			BytesMoved: int64(r.Summary.BytesMoved),
		},
		PeakToMedian: r.PeakToMedian,
	}
	if r.DataSizes != nil {
		out.DataSizes = &DataSizesJSON{
			Input:   distJSON(r.DataSizes.Input),
			Shuffle: distJSON(r.DataSizes.Shuffle),
			Output:  distJSON(r.DataSizes.Output),
		}
	}
	out.InputAccess = accessJSON(r.InputAccess)
	out.OutputAccess = accessJSON(r.OutputAccess)
	out.InputSizeAccess = sizeAccessJSON(r.InputSizeAccess)
	out.OutputSizeAccess = sizeAccessJSON(r.OutputSizeAccess)
	if iv := r.Intervals; iv != nil {
		out.Intervals = &IntervalsJSON{
			InputInput: distJSON(iv.InputInput),
			Within6h:   iv.FractionWithin(6 * time.Hour),
		}
		if iv.OutputInput != nil {
			out.Intervals.OutputInput = distJSON(iv.OutputInput)
		}
	}
	if rf := r.Reaccess; rf != nil {
		out.Reaccess = &ReaccessJSON{
			InputReaccess:    rf.InputReaccess,
			OutputReaccess:   rf.OutputReaccess,
			OutputObservable: rf.OutputObservable,
		}
	}
	if s := r.Series; s != nil {
		out.Series = &SeriesJSON{
			StartUnixMS:       s.Start.UnixMilli(),
			Jobs:              s.Jobs,
			Bytes:             s.Bytes,
			TaskSeconds:       s.TaskSeconds,
			TaskSecondsSpread: s.TaskSecondsSpread,
		}
	}
	if c := r.Correlations; c != nil {
		out.Correlations = &CorrelationsJSON{
			JobsBytes:        c.JobsBytes,
			JobsTaskSeconds:  c.JobsTaskSeconds,
			BytesTaskSeconds: c.BytesTaskSeconds,
		}
	}
	if n := r.Names; n != nil {
		nj := &NamesJSON{DistinctWords: n.DistinctWords}
		for _, g := range n.Groups {
			nj.Groups = append(nj.Groups, NameGroupJSON{
				Word:             g.Word,
				JobsFraction:     g.JobsFraction,
				BytesFraction:    g.BytesFraction,
				TaskTimeFraction: g.TaskTimeFraction,
			})
		}
		out.Names = nj
	}
	if jc := r.Clusters; jc != nil {
		cj := &ClustersJSON{K: jc.K, SmallJobFraction: jc.SmallJobFraction}
		for _, jt := range jc.Types {
			cj.Types = append(cj.Types, JobTypeJSON{
				Count:       jt.Count,
				Input:       int64(jt.Input),
				Shuffle:     int64(jt.Shuffle),
				Output:      int64(jt.Output),
				DurationSec: jt.Duration.Seconds(),
				MapTime:     float64(jt.MapTime),
				ReduceTime:  float64(jt.Reduce),
				Label:       jt.Label,
			})
		}
		out.Clusters = cj
	}
	return out
}
