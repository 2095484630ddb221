package storage

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/colseg"
	"repro/internal/core"
	"repro/internal/trace"
)

// The block-parallel disk scan — the one disk scan that builds a
// partial. Parallelizing at segment granularity would leave a trace
// packed into one or two big segments on one or two cores. Instead one
// IO goroutine walks the segments in manifest order, prunes at segment
// (manifest span) and block (zone map) granularity, and frames colseg
// blocks without decoding them: each segment's source (the one
// segmentSource every read shares) reads its committed prefix by
// offset, skips a pruned block without reading it, and reads a kept one
// straight into a pooled frame buffer. A bounded pool of workers
// decodes each frame as columns — only the window's rows, only the
// fields a report reads, no trace.Job built — and folds them block by
// block into per-chunk core.Partials (Partial.ObserveColumns, with
// block-local exact sums); the caller merges those partials in frame
// order. Because every aggregate is exact and mergeable, and exact sums
// encode canonically, the merged partial reports and snapshots
// byte-identically to a sequential core.BuildPartial over the same jobs,
// at any worker count.

// framePool recycles block-frame payload buffers: between the IO
// goroutine and the decode workers, and across the segment sources of
// sequential reads. Entries are pointers so Put never allocates a slice
// header.
var framePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 64<<10); return &b },
}

// frameChunk is how many block frames ride in one decode task,
// amortizing the per-task Partial allocation and channel hop.
const frameChunk = 4

// errScanAborted stops the IO walk when the merge side has already
// failed; it never escapes ParallelScanPartial.
var errScanAborted = errors.New("storage: scan aborted")

// ParallelScanOptions tunes a block-parallel scan.
type ParallelScanOptions struct {
	// Workers bounds the decode pool; 0 or less means one per CPU.
	Workers int
	// Sketch selects sketched data-size sections, exactly as on the
	// sequential build path.
	Sketch bool
	// Window restricts the scan to jobs submitted in [From, To):
	// segments and blocks prune conservatively via their recorded spans
	// and the survivors filter exactly (trace.Trace.Window's test).
	Window   bool
	From, To time.Time
	// Meta overrides the metadata the partials aggregate under — the
	// windowed path passes the window's meta. Zero means the trace's
	// own.
	Meta trace.Meta
}

// scanTask is one unit of decode work: a chunk of colseg frame
// payloads in pooled buffers.
type scanTask struct {
	seq  int
	bufs []*[]byte
}

// recycle returns the task's pooled buffers.
func (tk *scanTask) recycle() {
	for _, bp := range tk.bufs {
		framePool.Put(bp)
	}
	tk.bufs = nil
}

type scanResult struct {
	seq int
	p   *core.Partial
	err error
}

// ParallelScanPartial builds the trace's partial aggregate with the
// block-parallel pipeline. The result reports and snapshots the same
// bytes as a sequential partial observed over Each (or over
// WindowShards plus exact filtering, when windowed), at any worker
// count; the returned stats carry the same pruning evidence as
// WindowShards. Errors release every pooled buffer and descriptor
// before returning.
func (t *Trace) ParallelScanPartial(opts ParallelScanOptions) (*core.Partial, *ScanStats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	meta := opts.Meta
	if meta == (trace.Meta{}) {
		meta = t.Meta()
	}
	stats := &ScanStats{Segments: len(t.man.Segments)}

	work := make(chan scanTask, 2*workers)
	results := make(chan scanResult, 2*workers)
	abort := make(chan struct{})
	var once sync.Once
	cancel := func() { once.Do(func() { close(abort) }) }
	defer cancel()

	// IO goroutine: walk segments in manifest order, prune, frame, emit.
	var ioErr error
	go func() {
		defer close(work)
		seq := 0
		emit := func(tk scanTask) bool {
			select {
			case work <- tk:
				return true
			case <-abort:
				tk.recycle()
				return false
			}
		}
		fromSec, toSec := opts.From.Unix(), opts.To.Unix()
		var prune []colseg.Option
		if opts.Window {
			prune = []colseg.Option{colseg.WithTimeRange(opts.From, opts.To)}
		}
		for _, seg := range t.man.Segments {
			if opts.Window && seg.pruneOutside(fromSec, toSec) {
				stats.SegmentsPruned++
				continue
			}
			if err := emitSegmentFrames(t.source(seg, prune, stats), &seq, emit); err != nil {
				if err != errScanAborted {
					ioErr = err
				}
				return
			}
		}
	}()

	// Decode pool: frames into partials.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec := colseg.NewBlockDecoder()
			defer dec.Close()
			for tk := range work {
				select {
				case <-abort:
					tk.recycle()
					continue
				default:
				}
				p, err := buildTaskPartial(tk, meta, opts, dec)
				tk.recycle()
				results <- scanResult{seq: tk.seq, p: p, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Merge in task sequence order — deterministic regardless of which
	// worker finished first.
	var merged *core.Partial
	var scanErr error
	pending := make(map[int]*core.Partial)
	next := 0
	for res := range results {
		if scanErr != nil {
			continue
		}
		if res.err != nil {
			scanErr = res.err
			cancel()
			continue
		}
		pending[res.seq] = res.p
		for {
			p, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if merged == nil {
				merged = p
				continue
			}
			if err := merged.Merge(p); err != nil {
				scanErr = err
				cancel()
				break
			}
		}
	}
	if scanErr != nil {
		return nil, stats, scanErr
	}
	if ioErr != nil {
		return nil, stats, ioErr
	}
	if merged == nil {
		// Everything pruned (or an empty trace): the empty aggregate.
		p, err := core.NewPartial(meta, opts.Sketch)
		return p, stats, err
	}
	return merged, stats, nil
}

// emitSegmentFrames frames one segment source's kept blocks into
// pooled buffers and emits them in frameChunk batches. The source's
// block counters harvest into the scan stats when its frames end, or
// when an abort closes it.
func emitSegmentFrames(src *segmentSource, seq *int, emit func(scanTask) bool) error {
	var tk scanTask
	flush := func() bool {
		if len(tk.bufs) == 0 {
			return true
		}
		tk.seq = *seq
		*seq++
		ok := emit(tk)
		tk = scanTask{}
		return ok
	}
	for {
		bp := framePool.Get().(*[]byte)
		payload, err := src.nextFrame((*bp)[:0])
		if err != nil {
			framePool.Put(bp)
			if err == io.EOF {
				if !flush() {
					return errScanAborted
				}
				return nil
			}
			tk.recycle()
			return err
		}
		*bp = payload
		tk.bufs = append(tk.bufs, bp)
		if len(tk.bufs) >= frameChunk && !flush() {
			src.Close()
			return errScanAborted
		}
	}
}

// buildTaskPartial folds one task into a fresh partial: decode each
// frame as the columns of its kept rows (the window's, when windowed)
// and observe them block by block.
func buildTaskPartial(tk scanTask, meta trace.Meta, opts ParallelScanOptions, dec *colseg.BlockDecoder) (*core.Partial, error) {
	p, err := core.NewPartial(meta, opts.Sketch)
	if err != nil {
		return nil, err
	}
	for _, bp := range tk.bufs {
		cols, err := dec.DecodeColumns(*bp, opts.Window, opts.From, opts.To)
		if err != nil {
			return nil, err
		}
		p.ObserveColumns(cols)
	}
	return p, nil
}
