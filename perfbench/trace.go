package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/rtl"
	"repro/internal/val"
	"repro/internal/vpi"
)

// Span kinds: one per layer boundary the benchmark times from outside.
// Each kind has one static parent, so self time (a span minus its
// children) is computed from running totals.
const (
	spanNone       = iota
	spanSimStep    // sim.Simulator.Step / replay.Engine.StepForward
	spanCallback   // the runtime's OnClockEdge callback (core)
	spanVPIRead    // value reads through the backend
	spanVPIPoll    // ChangeReporter polls
	spanVPISetTime // SetTime through the backend
	spanHandler    // the in-process stop handler
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"", "sim.step", "core.callback", "vpi.read", "vpi.poll", "vpi.settime", "handler"}

var spanParent = [numSpanKinds]int{
	spanSimStep:    spanNone,
	spanCallback:   spanSimStep,
	spanVPIRead:    spanCallback,
	spanVPIPoll:    spanCallback,
	spanVPISetTime: spanCallback,
	spanHandler:    spanCallback,
}

// span is one recorded interval; ID is the edge (clock-edge ordinal)
// shared by every span of that edge, Parent the parent span's kind.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	ID     uint64 `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the raw spans held in memory (about 6 MB); totals
// keep accumulating past it.
const maxKeptSpans = 100_000

// tracer accumulates span totals and keeps the first maxKeptSpans raw
// spans for writing at exit. Reads may come from the runtime's worker
// goroutines, so every record takes the lock.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	edge  uint64
	total [numSpanKinds]int64
	child [numSpanKinds]int64
	count [numSpanKinds]int64
	paths int64
	kept  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds one span of kind k that ran from start to end.
func (t *tracer) record(k int, start, end time.Time) {
	if t == nil {
		return
	}
	d := end.Sub(start).Nanoseconds()
	t.mu.Lock()
	t.total[k] += d
	t.count[k]++
	if p := spanParent[k]; p != spanNone {
		t.child[p] += d
	}
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{
			Name: spanNames[k], Parent: spanNames[spanParent[k]], ID: t.edge,
			Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		})
	}
	t.mu.Unlock()
}

// nextEdge starts a new shared span id.
func (t *tracer) nextEdge() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.edge++
	t.mu.Unlock()
}

func (t *tracer) addPaths(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.paths += int64(n)
	t.mu.Unlock()
}

// snapshot copies the totals so a window can be measured as a
// difference of two snapshots.
type traceTotals struct {
	total, child, count [numSpanKinds]int64
	paths               int64
}

func (t *tracer) snapshot() traceTotals {
	if t == nil {
		return traceTotals{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return traceTotals{t.total, t.child, t.count, t.paths}
}

func (a traceTotals) sub(b traceTotals) traceTotals {
	for k := range a.total {
		a.total[k] -= b.total[k]
		a.child[k] -= b.child[k]
		a.count[k] -= b.count[k]
	}
	a.paths -= b.paths
	return a
}

func (a traceTotals) add(b traceTotals) traceTotals {
	for k := range a.total {
		a.total[k] += b.total[k]
		a.child[k] += b.child[k]
		a.count[k] += b.count[k]
	}
	a.paths += b.paths
	return a
}

func (a traceTotals) us(k int) float64     { return float64(a.total[k]) / 1e3 }
func (a traceTotals) selfUS(k int) float64 { return float64(a.total[k]-a.child[k]) / 1e3 }

// write dumps the kept spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedBackend wraps a vpi.Interface and records a span around every
// call into the backend plus the runtime's clock-edge callback. It
// forwards every optional capability of the wrapped backend:
//
//   - ChangeReporter and Prefetcher change what the runtime does when
//     present (activity skipping, timeline materialization), so the
//     wrapper advertises each exactly when the wrapped backend has it —
//     see wrapBackend, which picks the wrapper type by capability set.
//   - BatchReaderInto, BatchReader and BitsReader are always offered and
//     forward through vpi.ReadBatchInto / vpi.ReadBits, which call the
//     wrapped backend's native form when it has one and otherwise
//     perform exactly the fallback the runtime would perform itself.
type timedBackend struct {
	inner vpi.Interface
	tr    *tracer
}

// wrapBackend returns inner wrapped for tracing, preserving its
// capability set.
func wrapBackend(inner vpi.Interface, tr *tracer) vpi.Interface {
	tb := &timedBackend{inner: inner, tr: tr}
	_, cr := inner.(vpi.ChangeReporter)
	_, pf := inner.(vpi.Prefetcher)
	switch {
	case cr && pf:
		return timedReporterPrefetcher{tb}
	case cr:
		return timedReporter{tb}
	case pf:
		return timedPrefetcher{tb}
	}
	return tb
}

type timedReporter struct{ *timedBackend }

func (w timedReporter) TrackChanges(paths []string) { w.trackChanges(paths) }
func (w timedReporter) ChangedInto(dst []bool) bool { return w.changedInto(dst) }

type timedPrefetcher struct{ *timedBackend }

func (w timedPrefetcher) Prefetch(paths []string) { w.prefetch(paths) }

type timedReporterPrefetcher struct{ *timedBackend }

func (w timedReporterPrefetcher) TrackChanges(paths []string) { w.trackChanges(paths) }
func (w timedReporterPrefetcher) ChangedInto(dst []bool) bool { return w.changedInto(dst) }
func (w timedReporterPrefetcher) Prefetch(paths []string)     { w.prefetch(paths) }

var (
	_ vpi.BatchReaderInto = (*timedBackend)(nil)
	_ vpi.BatchReader     = (*timedBackend)(nil)
	_ vpi.BitsReader      = (*timedBackend)(nil)
	_ vpi.ChangeReporter  = timedReporter{}
	_ vpi.Prefetcher      = timedPrefetcher{}
	_ vpi.ChangeReporter  = timedReporterPrefetcher{}
	_ vpi.Prefetcher      = timedReporterPrefetcher{}
)

func (b *timedBackend) trackChanges(paths []string) {
	b.inner.(vpi.ChangeReporter).TrackChanges(paths)
}

func (b *timedBackend) changedInto(dst []bool) bool {
	start := time.Now()
	ok := b.inner.(vpi.ChangeReporter).ChangedInto(dst)
	b.tr.record(spanVPIPoll, start, time.Now())
	return ok
}

func (b *timedBackend) prefetch(paths []string) { b.inner.(vpi.Prefetcher).Prefetch(paths) }

func (b *timedBackend) GetValue(path string) (eval.Value, error) {
	start := time.Now()
	v, err := b.inner.GetValue(path)
	b.tr.record(spanVPIRead, start, time.Now())
	b.tr.addPaths(1)
	return v, err
}

func (b *timedBackend) GetValues(paths []string) ([]eval.Value, error) {
	out := make([]eval.Value, len(paths))
	if err := b.GetValuesInto(paths, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (b *timedBackend) GetValuesInto(paths []string, dst []eval.Value) error {
	start := time.Now()
	err := vpi.ReadBatchInto(b.inner, paths, dst)
	b.tr.record(spanVPIRead, start, time.Now())
	b.tr.addPaths(len(paths))
	return err
}

func (b *timedBackend) GetBits(path string) (val.Bits, error) {
	start := time.Now()
	v, err := vpi.ReadBits(b.inner, path)
	b.tr.record(spanVPIRead, start, time.Now())
	b.tr.addPaths(1)
	return v, err
}

func (b *timedBackend) Hierarchy() *rtl.InstanceNode { return b.inner.Hierarchy() }
func (b *timedBackend) ClockName() string            { return b.inner.ClockName() }
func (b *timedBackend) RemoveCallback(id int)        { b.inner.RemoveCallback(id) }
func (b *timedBackend) Time() uint64                 { return b.inner.Time() }

// OnClockEdge wraps the runtime's callback in a core.callback span and
// opens a new shared edge id for it.
func (b *timedBackend) OnClockEdge(cb func(time uint64)) int {
	return b.inner.OnClockEdge(func(t uint64) {
		b.tr.nextEdge()
		start := time.Now()
		cb(t)
		b.tr.record(spanCallback, start, time.Now())
	})
}

func (b *timedBackend) SetTime(t uint64) error {
	start := time.Now()
	err := b.inner.SetTime(t)
	b.tr.record(spanVPISetTime, start, time.Now())
	return err
}

func (b *timedBackend) SetValue(path string, v uint64) error { return b.inner.SetValue(path, v) }
