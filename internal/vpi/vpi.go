// Package vpi defines the paper's unified simulator interface (§3.3): a
// minimum set of primitives — get value, get hierarchy and clock
// information, clock-edge callbacks, get/set time, set value — that
// every backend (live simulator, trace replay) implements. hgdb's
// runtime is written only against this interface, which is what makes
// it simulator-agnostic; in the paper the same role is played by a
// small, universally supported subset of the Verilog Procedural
// Interface.
package vpi

import (
	"errors"
	"fmt"

	"repro/internal/eval"
	"repro/internal/rtl"
	"repro/internal/sim"
)

// ErrNotSupported is returned by optional primitives a backend does not
// implement (e.g. SetValue on a trace file, SetTime on a live run).
var ErrNotSupported = errors.New("vpi: operation not supported by this backend")

// Interface is the unified simulator interface.
type Interface interface {
	// GetValue returns the current value of a signal by full
	// hierarchical name. Essential for breakpoint emulation and frame
	// reconstruction.
	GetValue(path string) (eval.Value, error)

	// Hierarchy returns the design instance tree. Used to locate
	// generated IP inside the full testbench.
	Hierarchy() *rtl.InstanceNode

	// ClockName returns the full hierarchical name of the primary
	// clock, so the runtime knows which edge pauses the design.
	ClockName() string

	// OnClockEdge registers a callback invoked at each positive clock
	// edge with combinational state settled; returns a removal id.
	OnClockEdge(cb func(time uint64)) int

	// RemoveCallback removes a clock-edge callback.
	RemoveCallback(id int)

	// Time returns the current simulation time (cycles).
	Time() uint64

	// SetTime moves simulation time (optional; replay backends only —
	// this is what enables full reverse debugging).
	SetTime(t uint64) error

	// SetValue deposits a value into the design (optional; live
	// simulation only).
	SetValue(path string, v uint64) error
}

// BatchReader is an optional backend capability: fetch many signal
// values in one call. The debugger's clock-edge callback reads the
// union of every inserted breakpoint's dependencies each cycle; doing
// that through one batched call instead of one GetValue round trip per
// signal per breakpoint is what keeps the per-cycle overhead flat as
// breakpoints accumulate (§4.3). On a real VPI transport each GetValue
// is an IPC round trip, so the capability matters even more there.
type BatchReader interface {
	// GetValues returns the current value of each path, in order.
	GetValues(paths []string) ([]eval.Value, error)
}

// BatchReaderInto is an optional refinement of BatchReader for callers
// that reuse a destination buffer across calls — the debugger's
// per-edge prefetch runs every cycle for the simulation's lifetime, so
// it must not allocate a result slice per edge.
type BatchReaderInto interface {
	// GetValuesInto writes the current value of each path into dst
	// (which must be at least len(paths) long).
	GetValuesInto(paths []string, dst []eval.Value) error
}

// Prefetcher is an optional backend capability: a caller advises the
// backend which signal paths it will read every cycle so the backend
// can prepare. No backend implements it and the debugger runtime does
// not call it — the replay engine's change poll syncs the state its
// reads come from. It stays only because the benchmark harness's
// timing wrapper (perfbench/trace.go) names it. The hint is advisory —
// reads outside the advised set must still work.
type Prefetcher interface {
	// Prefetch advises the per-cycle read set. The slice is owned by
	// the caller; implementations must not retain it.
	Prefetch(paths []string)
}

// ChangeReporter is an optional backend capability: per-edge signal
// activity reporting, the foundation of activity-driven scheduling.
// The debugger registers the signal paths it reads every cycle (the
// union of every armed condition's dependencies); at each clock edge it
// asks which of them may have changed since the previous poll, and
// skips re-evaluating condition groups whose dependencies are all
// clean. Hardware signals are mostly idle, so this turns the per-edge
// breakpoint cost from O(armed conditions) into O(signal activity).
//
// The contract is conservative in one direction only: implementations
// may over-report (a signal marked changed that did not change costs a
// wasted re-evaluation) but must never under-report — a tracked path
// whose value differs between two ChangedInto calls must be reported
// changed, or the debugger would miss stops. The capability assumes a
// single consumer: TrackChanges replaces any previous registration, and
// each ChangedInto consumes the pending report.
type ChangeReporter interface {
	// TrackChanges registers the paths to report on, replacing any
	// previous set. The slice is owned by the caller; implementations
	// must copy what they need. Paths the backend cannot resolve are
	// permanently reported as changed (the caller treats them
	// conservatively anyway).
	TrackChanges(paths []string)

	// ChangedInto fills dst[i] (aligned with the registered path slice,
	// which must be at least as long) with whether tracked path i may
	// have changed since the previous ChangedInto call — or since
	// TrackChanges for the first call, which reports every path
	// changed. The return value says whether the backend could bound
	// the change set at all: false means the caller must assume every
	// signal changed (nothing is registered, or time moved backwards
	// or discontinuously since the last poll).
	ChangedInto(dst []bool) bool
}

// ReadBatch reads many signals through the backend's native batch
// primitive when it implements BatchReader, falling back to one
// GetValue call per path otherwise. Any unknown path fails the whole
// batch; callers that tolerate partial results must probe individually.
func ReadBatch(b Interface, paths []string) ([]eval.Value, error) {
	out := make([]eval.Value, len(paths))
	if err := ReadBatchInto(b, paths, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBatchInto is ReadBatch with a caller-owned destination buffer,
// preferring the backend's allocation-free BatchReaderInto form.
func ReadBatchInto(b Interface, paths []string, dst []eval.Value) error {
	if len(dst) < len(paths) {
		return fmt.Errorf("vpi: batch destination too short: %d < %d", len(dst), len(paths))
	}
	if bi, ok := b.(BatchReaderInto); ok {
		return bi.GetValuesInto(paths, dst)
	}
	if br, ok := b.(BatchReader); ok {
		vals, err := br.GetValues(paths)
		if err != nil {
			return err
		}
		copy(dst, vals)
		return nil
	}
	for i, p := range paths {
		v, err := b.GetValue(p)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// SimBackend adapts the live simulator to the unified interface.
type SimBackend struct {
	Sim *sim.Simulator
}

var (
	_ Interface       = (*SimBackend)(nil)
	_ BatchReader     = (*SimBackend)(nil)
	_ BatchReaderInto = (*SimBackend)(nil)
	_ ChangeReporter  = (*SimBackend)(nil)
)

// NewSimBackend wraps a live simulator.
func NewSimBackend(s *sim.Simulator) *SimBackend { return &SimBackend{Sim: s} }

// GetValue implements Interface.
func (b *SimBackend) GetValue(path string) (eval.Value, error) {
	return b.Sim.Peek(path)
}

// GetValues implements BatchReader with the simulator's native batched
// peek.
func (b *SimBackend) GetValues(paths []string) ([]eval.Value, error) {
	out := make([]eval.Value, len(paths))
	if err := b.Sim.PeekBatch(paths, out); err != nil {
		return nil, err
	}
	return out, nil
}

// GetValuesInto implements BatchReaderInto without allocating.
func (b *SimBackend) GetValuesInto(paths []string, dst []eval.Value) error {
	return b.Sim.PeekBatch(paths, dst)
}

// TrackChanges implements ChangeReporter with the simulator's native
// dirty-signal tracking.
func (b *SimBackend) TrackChanges(paths []string) { b.Sim.TrackChanges(paths) }

// ChangedInto implements ChangeReporter.
func (b *SimBackend) ChangedInto(dst []bool) bool { return b.Sim.ChangedInto(dst) }

// Hierarchy implements Interface.
func (b *SimBackend) Hierarchy() *rtl.InstanceNode { return b.Sim.Netlist().Hierarchy }

// ClockName implements Interface.
func (b *SimBackend) ClockName() string {
	return b.Sim.Netlist().Top + ".clock"
}

// OnClockEdge implements Interface.
func (b *SimBackend) OnClockEdge(cb func(time uint64)) int {
	return b.Sim.OnClockEdge(cb)
}

// RemoveCallback implements Interface.
func (b *SimBackend) RemoveCallback(id int) { b.Sim.RemoveCallback(id) }

// Time implements Interface.
func (b *SimBackend) Time() uint64 { return b.Sim.Time() }

// SetTime implements Interface; live simulation cannot move backwards.
func (b *SimBackend) SetTime(uint64) error {
	return fmt.Errorf("%w: live simulation cannot seek in time", ErrNotSupported)
}

// SetValue implements Interface.
func (b *SimBackend) SetValue(path string, v uint64) error {
	sig, ok := b.Sim.Netlist().Signal(path)
	if !ok {
		return fmt.Errorf("vpi: unknown signal %q", path)
	}
	if sig.Kind == rtl.KindReg {
		return b.Sim.PokeReg(path, v)
	}
	return b.Sim.Poke(path, v)
}
