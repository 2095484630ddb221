package analysis

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// NameGroup is one first-word bucket of the Figure 10 analysis.
type NameGroup struct {
	// Word is the normalized first word of the job names in the group.
	Word string
	// JobsFraction, BytesFraction, TaskTimeFraction are the group's share
	// of the workload weighted three ways, matching Figure 10's three
	// panels.
	JobsFraction     float64
	BytesFraction    float64
	TaskTimeFraction float64
}

// NameAnalysis is the Figure 10 analysis for one workload.
type NameAnalysis struct {
	Workload string
	// Groups sorted by descending JobsFraction.
	Groups []NameGroup
	// DistinctWords counts distinct first words observed.
	DistinctWords int
}

// FirstWord extracts the normalized first word of a job name the way §6.1
// describes: "we focus on the first word of job names, ignoring any
// capitalization, numbers, or other symbols".
func FirstWord(name string) string {
	var b strings.Builder
	started := false
	for _, r := range name {
		if unicode.IsLetter(r) {
			b.WriteRune(unicode.ToLower(r))
			started = true
			continue
		}
		if started {
			break
		}
		// Skip leading digits/symbols until the first letter run begins.
	}
	return b.String()
}

// firstWord is FirstWord without its allocation in the common case.
// When the name's first letter run is lowercase ASCII and ends at an
// ASCII non-letter or at the end, the word is that run of the name
// itself. A name where the run could start or go on with an uppercase
// or a non-ASCII letter (or an invalid byte) takes FirstWord.
func firstWord(name string) string {
	i := 0
	for ; i < len(name) && (name[i] < 'a' || name[i] > 'z'); i++ {
		if c := name[i]; c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
			return FirstWord(name)
		}
	}
	j := i
	for j < len(name) && 'a' <= name[j] && name[j] <= 'z' {
		j++
	}
	if j < len(name) {
		if c := name[j]; c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
			return FirstWord(name)
		}
	}
	return name[i:j]
}

// nameAgg is one first-word bucket's running totals. Jobs and bytes are
// integers and task-time is an exact sum, so bucket totals are
// order-independent and merge without drift.
type nameAgg struct {
	jobs     int64
	bytes    units.Bytes
	taskTime stats.ExactSum
	// blk is the bucket's block-local task-time sum while an
	// ObserveColumns call runs, nil otherwise.
	blk *stats.BlockSum
}

// NamesBuilder accumulates Figure 10 incrementally. Memory is bounded by
// the distinct first-word vocabulary (a handful per workload, §6.1), not
// by job count, so the analysis streams. JobNames delegates to it.
//
// The builder is a mergeable partial aggregate: bucket totals are exact
// sums, so observing a stream in shards and Merge-ing the shard
// builders yields a Result() identical to sequential observation.
type NamesBuilder struct {
	workload string
	groups   map[string]*nameAgg
	totJobs  int64
	totBytes units.Bytes
	totTask  stats.ExactSum
	named    bool
}

// NewNamesBuilder starts a Figure 10 accumulation.
func NewNamesBuilder(workload string) *NamesBuilder {
	return &NamesBuilder{workload: workload, groups: make(map[string]*nameAgg)}
}

// Observe folds one job in. Unnamed jobs count under "[unnamed]", as
// before; whether the trace carries names at all is decided at Result.
func (b *NamesBuilder) Observe(j *trace.Job) {
	if j.Name != "" {
		b.named = true
	}
	g := b.group(j.Name)
	bytes, task := j.TotalBytes(), float64(j.TotalTaskTime())
	g.jobs++
	g.bytes += bytes
	g.taskTime.Add(task)
	b.totJobs++
	b.totBytes += bytes
	b.totTask.Add(task)
}

// group returns the bucket of name's first word, creating it on first
// sight. The lookup does not allocate; a new bucket's key is cloned, so
// the map never pins the string a word was cut from (a decoded block's
// dictionary).
func (b *NamesBuilder) group(name string) *nameAgg {
	w := firstWord(name)
	if w == "" {
		w = "[unnamed]"
	}
	g := b.groups[w]
	if g == nil {
		g = &nameAgg{}
		b.groups[strings.Clone(w)] = g
	}
	return g
}

// ObserveColumns folds a run of jobs held as columns, in row order,
// reaching exactly the state Observe reaches over the same jobs but for
// the exact sums' representation: each touched bucket's task time, and
// the total, accumulate in a block-local stats.BlockSum folded in once
// per call, so the sums hold the same values (and report the same bits)
// in a different expansion.
func (b *NamesBuilder) ObserveColumns(c *trace.Columns) {
	sc := getBlockSums()
	defer sc.release()
	tot := sc.get()
	for i, name := range c.Name {
		if name != "" {
			b.named = true
		}
		g := b.group(name)
		if g.blk == nil {
			g.blk = sc.get()
			sc.groups = append(sc.groups, g)
		}
		bytes := c.InputBytes[i] + c.ShuffleBytes[i] + c.OutputBytes[i]
		task := float64(c.MapTime[i] + c.ReduceTime[i])
		g.jobs++
		g.bytes += bytes
		g.blk.Add(task)
		b.totBytes += bytes
		tot.Add(task)
	}
	b.totJobs += int64(c.Len())
	for _, g := range sc.groups {
		g.blk.FoldInto(&g.taskTime)
		g.blk = nil
	}
	tot.FoldInto(&b.totTask)
}

// Clone returns an independent copy of the builder, in O(words).
func (b *NamesBuilder) Clone() *NamesBuilder {
	c := *b
	c.totTask = b.totTask.Clone()
	c.groups = make(map[string]*nameAgg, len(b.groups))
	for w, g := range b.groups {
		c.groups[w] = &nameAgg{jobs: g.jobs, bytes: g.bytes, taskTime: g.taskTime.Clone()}
	}
	return &c
}

// Merge folds another builder's buckets into this one. Both must cover
// the same workload. The argument is not modified.
func (b *NamesBuilder) Merge(o *NamesBuilder) error {
	if b.workload != o.workload {
		return fmt.Errorf("analysis: cannot merge name analyses of different workloads (%q vs %q)", b.workload, o.workload)
	}
	for w, og := range o.groups {
		g := b.groups[w]
		if g == nil {
			g = &nameAgg{}
			b.groups[w] = g
		}
		g.jobs += og.jobs
		g.bytes += og.bytes
		g.taskTime.Merge(&og.taskTime)
	}
	b.totJobs += o.totJobs
	b.totBytes += o.totBytes
	b.totTask.Merge(&o.totTask)
	b.named = b.named || o.named
	return nil
}

// Result returns the Figure 10 analysis, erroring when the stream
// carried no job names (mirroring JobNames on a nameless trace).
func (b *NamesBuilder) Result(topN int) (*NameAnalysis, error) {
	if !b.named {
		return nil, errors.New("analysis: trace carries no job names")
	}
	if b.totJobs == 0 {
		return nil, errors.New("analysis: no named jobs")
	}
	if topN < 1 {
		topN = 1
	}
	words := make([]string, 0, len(b.groups))
	for w := range b.groups {
		words = append(words, w)
	}
	sort.Slice(words, func(i, k int) bool {
		gi, gk := b.groups[words[i]], b.groups[words[k]]
		if gi.jobs != gk.jobs {
			return gi.jobs > gk.jobs
		}
		return words[i] < words[k]
	})
	res := &NameAnalysis{Workload: b.workload, DistinctWords: len(b.groups)}
	var restJobs int64
	var restBytes units.Bytes
	var restTask stats.ExactSum
	for i, w := range words {
		g := b.groups[w]
		if i < topN {
			res.Groups = append(res.Groups, NameGroup{
				Word:             w,
				JobsFraction:     float64(g.jobs) / float64(b.totJobs),
				BytesFraction:    safeDiv(float64(g.bytes), float64(b.totBytes)),
				TaskTimeFraction: safeDiv(g.taskTime.Sum(), b.totTask.Sum()),
			})
			continue
		}
		restJobs += g.jobs
		restBytes += g.bytes
		restTask.Merge(&g.taskTime)
	}
	if restJobs > 0 {
		res.Groups = append(res.Groups, NameGroup{
			Word:             "[others]",
			JobsFraction:     float64(restJobs) / float64(b.totJobs),
			BytesFraction:    safeDiv(float64(restBytes), float64(b.totBytes)),
			TaskTimeFraction: safeDiv(restTask.Sum(), b.totTask.Sum()),
		})
	}
	return res, nil
}

// JobNames computes Figure 10: first words of job names weighted by job
// count, by total I/O bytes, and by task-time. topN groups are kept; the
// remainder is aggregated into an "[others]" group, as the figure does.
func JobNames(t *trace.Trace, topN int) (*NameAnalysis, error) {
	if !t.HasNames() {
		return nil, errors.New("analysis: trace carries no job names")
	}
	b := NewNamesBuilder(t.Meta.Name)
	for _, j := range t.Jobs {
		b.Observe(j)
	}
	return b.Result(topN)
}

// TopKJobsFraction returns the combined job share of the k most frequent
// first words (excluding the [others] catch-all): "the top handful of
// words account for a dominant majority of jobs".
func (n *NameAnalysis) TopKJobsFraction(k int) float64 {
	var sum float64
	count := 0
	for _, g := range n.Groups {
		if g.Word == "[others]" {
			continue
		}
		sum += g.JobsFraction
		count++
		if count == k {
			break
		}
	}
	return sum
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
