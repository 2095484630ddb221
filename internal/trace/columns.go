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
