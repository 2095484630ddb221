package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// castagnoli checksums response bodies: hardware-accelerated, so every
// response can be fingerprinted without loading the generator.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func bodyCRC(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// oracle computes, in-process and independently of swimd, the report
// bytes a read must return: the trace (or window) analyzed from the
// generated jobs, finalized and marshaled exactly as the wire format
// defines.
type oracle struct {
	partials map[string]*core.Partial // whole-trace partials by trace+mode
	bodies   map[string][]byte        // rendered bodies by request key
}

func newOracle() *oracle {
	return &oracle{partials: make(map[string]*core.Partial), bodies: make(map[string][]byte)}
}

// expected returns the body a read op must be answered with. For a
// whole-trace live read, jobs names the committed prefix the response
// reports (the feed moves while it is read).
func (or *oracle) expected(w *workload, o *op, jobs int) ([]byte, error) {
	key := fmt.Sprintf("%s|%d|%t|%d|%d|%s", o.tr.name, o.top, o.sketch, o.from.Unix(), o.to.Unix(), o.trailing)
	if o.liveWhole {
		key = fmt.Sprintf("live|%d", jobs)
	}
	if b, ok := or.bodies[key]; ok {
		return b, nil
	}
	t := o.tr.tr
	var p *core.Partial
	var err error
	switch {
	case o.liveWhole:
		b := w.feed.batchOf(jobs)
		if b < 0 {
			return nil, fmt.Errorf("live report of %d jobs ends inside a batch", jobs)
		}
		p, err = core.BuildTracePartial(w.feed.prefix(b), 0, false)
	case o.trailing > 0:
		end := o.tr.end()
		p, err = core.BuildTracePartial(t.Window(end.Add(-o.trailing), o.trailing), 0, o.sketch)
	case !o.from.IsZero():
		p, err = core.BuildTracePartial(t.Window(o.from, o.to.Sub(o.from)), 0, o.sketch)
	default:
		pk := fmt.Sprintf("%s|%t", o.tr.name, o.sketch)
		if p = or.partials[pk]; p == nil {
			p, err = core.BuildTracePartial(t, 0, o.sketch)
			or.partials[pk] = p
		}
	}
	if err != nil {
		return nil, err
	}
	b, err := render(p, o.top)
	if err != nil {
		return nil, err
	}
	or.bodies[key] = b
	return b, nil
}

// render finalizes a partial into the report wire bytes.
func render(p *core.Partial, top int) ([]byte, error) {
	rep, err := p.Report(top)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep.JSON())
}

// reportJobs reads the job count out of a report body.
func reportJobs(body []byte) (int, error) {
	var r struct {
		Summary struct {
			Jobs int `json:"jobs"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	return r.Summary.Jobs, nil
}

// liveIdentity is the part of a trace identity the live checks compare.
type liveIdentity struct {
	Fingerprint string `json:"fingerprint"`
	Jobs        int    `json:"jobs"`
}

// checkLiveFinal verifies the end state of the live feed: the
// fingerprint equals the one-shot fingerprint of every acknowledged
// job, and the whole-trace report equals the in-process analysis of
// that one-shot trace.
func checkLiveFinal(f *liveFeed, info []byte, report []byte) error {
	var id liveIdentity
	if err := json.Unmarshal(info, &id); err != nil {
		return fmt.Errorf("live trace identity: %w", err)
	}
	b := int(f.acked.Load())
	oneShot := f.prefix(b)
	fp, err := oneShot.Fingerprint()
	if err != nil {
		return err
	}
	if id.Jobs != oneShot.Len() || id.Fingerprint != fp {
		return fmt.Errorf("live trace is %d jobs / %.12s, one-shot upload of the same %d jobs is %.12s",
			id.Jobs, id.Fingerprint, oneShot.Len(), fp)
	}
	p, err := core.BuildTracePartial(oneShot, 0, false)
	if err != nil {
		return err
	}
	want, err := render(p, 0)
	if err != nil {
		return err
	}
	if string(report) != string(want) {
		return fmt.Errorf("live report (%d bytes) differs from the in-process analysis of the one-shot trace (%d bytes)", len(report), len(want))
	}
	return nil
}

// windowMeta is the metadata a windowed report aggregates under.
func windowMeta(meta trace.Meta, from, to time.Time) trace.Meta {
	return trace.Meta{Name: meta.Name, Machines: meta.Machines, Start: from, Length: to.Sub(from)}
}
