package analysis

import (
	"sync"

	"repro/internal/stats"
)

// blockSums is one ObserveColumns call's block-local exact-sum scratch:
// stats.BlockSums handed out as hour bins and name buckets are first
// touched, and the index of the touched bins. Only touched bins get an
// accumulator, and the scratch is pooled, so a scan worker reuses one
// across its blocks; what grows with the series' hour count is the
// int32 index alone.
type blockSums struct {
	accs []*stats.BlockSum
	used int
	// groups are the name buckets holding an accumulator.
	groups []*nameAgg
	// hours are the touched hour bins in first-touch order, bins their
	// accumulators, and slot[h] is 1 + h's index in both (0: untouched).
	hours []int
	bins  []hourSums
	slot  []int32
}

// hourSums is one touched hour bin's pair of block sums.
type hourSums struct{ task, spread *stats.BlockSum }

var blockSumsPool = sync.Pool{New: func() any { return new(blockSums) }}

func getBlockSums() *blockSums { return blockSumsPool.Get().(*blockSums) }

// get hands out an empty accumulator.
func (s *blockSums) get() *stats.BlockSum {
	if s.used == len(s.accs) {
		s.accs = append(s.accs, new(stats.BlockSum))
	}
	a := s.accs[s.used]
	s.used++
	return a
}

// bin returns hour h's accumulators, of a series of the given hours.
func (s *blockSums) bin(h, hours int) *hourSums {
	if len(s.slot) < hours {
		s.slot = make([]int32, hours)
	}
	if k := s.slot[h]; k > 0 {
		return &s.bins[k-1]
	}
	s.hours = append(s.hours, h)
	s.bins = append(s.bins, hourSums{task: s.get(), spread: s.get()})
	s.slot[h] = int32(len(s.bins))
	return &s.bins[len(s.bins)-1]
}

// release returns the scratch to the pool. Every accumulator handed out
// must have been folded, which empties it.
func (s *blockSums) release() {
	for _, h := range s.hours {
		s.slot[h] = 0
	}
	clear(s.groups)
	clear(s.bins)
	s.used, s.groups, s.hours, s.bins = 0, s.groups[:0], s.hours[:0], s.bins[:0]
	blockSumsPool.Put(s)
}
