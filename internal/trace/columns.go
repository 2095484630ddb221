package trace

import (
	"time"

	"repro/internal/units"
)

// Columns is a run of jobs held column by column: the fields the
// streamed report sections read (Table 1, Figures 1, 7–9 and 10), row i
// of every slice describing the same job, in submit order. The
// block-parallel disk scan decodes a colseg block into Columns holding
// only its in-window rows, and the partial aggregate folds them without
// materializing a Job. IDs, zones, task counts and paths are not held:
// no streamed section reads them.
//
// The submit time is (SubmitSec, SubmitNanos): Unix seconds and the
// nanosecond within the second, always below 1e9 — exactly what
// time.Unix(SubmitSec[i], int64(SubmitNanos[i])) reconstructs, at any
// year, with no int64-nanosecond wrap.
type Columns struct {
	SubmitSec    []int64
	SubmitNanos  []uint32
	Duration     []time.Duration
	InputBytes   []units.Bytes
	ShuffleBytes []units.Bytes
	OutputBytes  []units.Bytes
	MapTime      []units.TaskSeconds
	ReduceTime   []units.TaskSeconds
	Name         []string
}

// Len returns the number of rows.
func (c *Columns) Len() int { return len(c.SubmitSec) }

// ChunkRows is how many rows a producer folds at a time: colseg.BlockJobs.
const ChunkRows = 4096

// Append adds j as the last row, copying its fields (j may be reused).
func (c *Columns) Append(j *Job) {
	c.SubmitSec = append(c.SubmitSec, j.SubmitTime.Unix())
	c.SubmitNanos = append(c.SubmitNanos, uint32(j.SubmitTime.Nanosecond()))
	c.Duration = append(c.Duration, j.Duration)
	c.InputBytes = append(c.InputBytes, j.InputBytes)
	c.ShuffleBytes = append(c.ShuffleBytes, j.ShuffleBytes)
	c.OutputBytes = append(c.OutputBytes, j.OutputBytes)
	c.MapTime = append(c.MapTime, j.MapTime)
	c.ReduceTime = append(c.ReduceTime, j.ReduceTime)
	c.Name = append(c.Name, j.Name)
}

// Reset empties the columns, keeping their capacity.
func (c *Columns) Reset() {
	clear(c.Name) // unpin the names
	*c = Columns{c.SubmitSec[:0], c.SubmitNanos[:0], c.Duration[:0], c.InputBytes[:0],
		c.ShuffleBytes[:0], c.OutputBytes[:0], c.MapTime[:0], c.ReduceTime[:0], c.Name[:0]}
}

// OneRow returns a run holding only j.
func OneRow(j *Job) *Columns {
	c := new(Columns)
	c.Append(j)
	return c
}
