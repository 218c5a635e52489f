// Package replay implements the paper's trace-based replay backend: the
// same unified simulator interface as a live simulation, but backed by
// a recorded VCD trace. Because SetTime works in both directions, the
// hgdb runtime can extend intra-cycle reverse debugging to full reverse
// debugging — stepping to previous clock cycles and re-running the
// breakpoint schedule in reverse order (§3.2).
//
// The trace is a vcd.Store block index. Every read comes from one
// signal-state array synced to the replay time; the per-edge change
// poll is the forward sync that advances it, and backward SetTime
// restores the nearest periodic value-snapshot checkpoint then replays
// forward deltas, making a reverse step O(checkpoint interval) instead
// of O(t) on undecoded state.
package replay

import (
	"fmt"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/rtl"
	"repro/internal/val"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// Engine replays a VCD trace behind the vpi.Interface.
type Engine struct {
	src *storeBacking
	// time is atomic because the debug server dispatches raw reads on
	// connection goroutines while the owning goroutine steps/seeks; a
	// batched read loads it once so one batch sees one instant.
	time      atomic.Uint64
	callbacks map[int]func(uint64)
	cbOrder   []int
	nextCB    int
}

var (
	_ vpi.Interface       = (*Engine)(nil)
	_ vpi.BatchReader     = (*Engine)(nil)
	_ vpi.BatchReaderInto = (*Engine)(nil)
	_ vpi.ChangeReporter  = (*Engine)(nil)
	_ vpi.BitsReader      = (*Engine)(nil)
)

// NewStore wraps a block-store trace index with checkpointed state
// reconstruction; see the package comment and WithCheckpointInterval.
func NewStore(store *vcd.Store, opts ...StoreEngineOption) *Engine {
	return &Engine{src: newStoreBacking(store, opts...), callbacks: map[int]func(uint64){}}
}

// MaxTime returns the final timestamp in the trace.
func (e *Engine) MaxTime() uint64 { return e.src.st.MaxTime }

// Checkpoints returns how many value-snapshot restore points the
// backend currently holds.
func (e *Engine) Checkpoints() int { return e.src.checkpoints() }

// TrackChanges implements vpi.ChangeReporter: registers the dirty-set
// watch list with the trace backend, whose forward state sweeps mark
// the tracked signals among the records they apply.
func (e *Engine) TrackChanges(paths []string) { e.src.trackChanges(paths) }

// ChangedInto implements vpi.ChangeReporter at the current replay time:
// it syncs the replay state to that time, so the reads that follow are
// state lookups.
func (e *Engine) ChangedInto(dst []bool) bool {
	return e.src.changedInto(e.time.Load(), dst)
}

// GetValue implements vpi.Interface: the signal's recorded value at the
// current replay time, lowered onto the two-state fast path. A value
// that cannot be lowered — x/z bits, or wider than 64 bits — returns an
// error wrapping vpi.ErrFourState; callers that can handle the general
// representation read through GetBits instead.
func (e *Engine) GetValue(path string) (eval.Value, error) {
	b, err := e.src.bits(path, e.time.Load())
	if err != nil {
		return eval.Value{}, err
	}
	v, ok := eval.FromBits(b)
	if !ok {
		return eval.Value{}, fmt.Errorf("%w: %s = %s", vpi.ErrFourState, path, b.String())
	}
	return v, nil
}

// GetBits implements vpi.BitsReader: the signal's full four-state value
// at the current replay time.
func (e *Engine) GetBits(path string) (val.Bits, error) {
	return e.src.bits(path, e.time.Load())
}

// GetValues implements vpi.BatchReader: one trace lookup pass for the
// whole dependency set at the current replay time.
func (e *Engine) GetValues(paths []string) ([]eval.Value, error) {
	out := make([]eval.Value, len(paths))
	if err := e.GetValuesInto(paths, out); err != nil {
		return nil, err
	}
	return out, nil
}

// GetValuesInto implements vpi.BatchReaderInto without allocating:
// one lock and one state sync for the whole batch.
func (e *Engine) GetValuesInto(paths []string, dst []eval.Value) error {
	if len(dst) < len(paths) {
		return fmt.Errorf("replay: batch destination too short: %d < %d", len(dst), len(paths))
	}
	sb := e.src
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if err := sb.syncChecked(e.time.Load()); err != nil {
		return err
	}
	for i, p := range paths {
		ts, err := sb.signal(p)
		if err != nil {
			return err
		}
		b := sb.st.StateBits(sb.state, ts)
		v, ok := eval.FromBits(b)
		if !ok {
			return fmt.Errorf("%w: %s = %s", vpi.ErrFourState, p, b.String())
		}
		dst[i] = v
	}
	return nil
}

// Hierarchy implements vpi.Interface with the scope tree reconstructed
// from the trace (hierarchy only — no definition information, as the
// paper notes for VCD).
func (e *Engine) Hierarchy() *rtl.InstanceNode { return e.src.st.Hierarchy }

// ClockName implements vpi.Interface.
func (e *Engine) ClockName() string {
	if e.src.st.Hierarchy == nil {
		return "clock"
	}
	return e.src.st.Hierarchy.Path + ".clock"
}

// OnClockEdge implements vpi.Interface.
func (e *Engine) OnClockEdge(cb func(time uint64)) int {
	id := e.nextCB
	e.nextCB++
	e.callbacks[id] = cb
	e.cbOrder = append(e.cbOrder, id)
	return id
}

// RemoveCallback implements vpi.Interface.
func (e *Engine) RemoveCallback(id int) {
	delete(e.callbacks, id)
	for i, v := range e.cbOrder {
		if v == id {
			e.cbOrder = append(e.cbOrder[:i], e.cbOrder[i+1:]...)
			break
		}
	}
}

// Time implements vpi.Interface.
func (e *Engine) Time() uint64 { return e.time.Load() }

// SetTime implements vpi.Interface — the primitive that unlocks reverse
// debugging. Seeking does not fire edge callbacks; use StepForward and
// StepBackward to emulate clock edges. A backward seek costs
// O(checkpoint interval) trace records, not O(t).
func (e *Engine) SetTime(t uint64) error {
	if t > e.src.st.MaxTime {
		return fmt.Errorf("replay: time %d beyond end of trace (%d)", t, e.src.st.MaxTime)
	}
	e.time.Store(t)
	return nil
}

// SetValue implements vpi.Interface; traces are immutable.
func (e *Engine) SetValue(string, uint64) error {
	return fmt.Errorf("%w: cannot set values on a trace file", vpi.ErrNotSupported)
}

func (e *Engine) fire() {
	for _, id := range e.cbOrder {
		if cb, ok := e.callbacks[id]; ok {
			cb(e.time.Load())
		}
	}
}

// StepForward advances one cycle and fires edge callbacks; returns
// false at the end of the trace.
func (e *Engine) StepForward() bool {
	t := e.time.Load()
	if t >= e.src.st.MaxTime {
		return false
	}
	e.time.Store(t + 1)
	e.fire()
	return true
}

// StepBackward rewinds one cycle and fires edge callbacks; returns
// false at time zero.
func (e *Engine) StepBackward() bool {
	t := e.time.Load()
	if t == 0 {
		return false
	}
	e.time.Store(t - 1)
	e.fire()
	return true
}

// Run advances up to n cycles, stopping at the end of the trace.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		if !e.StepForward() {
			return
		}
	}
}
