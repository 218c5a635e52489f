package core

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/val"
)

// Watchpoint is a data breakpoint: the simulation stops when the
// watched expression's value changes between clock edges. This extends
// the paper's breakpoint emulation with the other classic source-level
// debugging primitive; it rides the same clock-edge callback and the
// same stable-state guarantee.
type Watchpoint struct {
	ID int
	// Instance scopes name resolution (symtab-relative path).
	Instance string
	// Expr is the watched expression source.
	Expr string

	// bound is the expression bound to simulator paths at add time.
	bound *boundExpr

	// last is the previous value in the four-state plane; two-state
	// results are lifted into it so the change compare is uniform
	// across the compiled and general paths.
	last  val.Bits
	armed bool
	// fusedID is this watch's condition id in the whole-schedule fused
	// program, or -1 when the watch rides the per-watch path (unfusable
	// dependencies, or fusion unavailable). Set by rebuildFused under
	// rt.mu; read on the simulation goroutine.
	fusedID int
	// canSkip marks the watch evaluation as provably redundant: the
	// last evaluation succeeded with every dependency slot readable,
	// and no dependency has changed at a cache refresh since — so the
	// watched value cannot have moved and re-evaluating it cannot hit.
	// Maintained by ensurePrefetch/checkWatches on the simulation
	// goroutine, reset on every dependency-union rebuild.
	canSkip bool
}

// AddWatch registers a watchpoint on an expression evaluated in an
// instance context; it stops on any value change. The expression is
// compiled once here and bound through the chain breakpoint conditions
// use (resolveSourceName, with no breakpoint scope), so watchpoints
// and breakpoints see identical names.
func (rt *Runtime) AddWatch(instance, source string) (int, error) {
	n, prog, err := expr.ParseCompile(source)
	if err != nil {
		return 0, err
	}
	unresolved := ""
	bound := bind(n, prog, func(name string) (string, bool) {
		path, verified := rt.resolveSourceName(0, instance, name, nil)
		// Unlike a deferred breakpoint condition, a watch must resolve
		// at add time: probe the absolute path now.
		if !verified && !rt.exists(path, nil) && unresolved == "" {
			unresolved = name
		}
		return path, true
	})
	if unresolved != "" {
		return 0, fmt.Errorf("core: watch: cannot resolve %q in %s", unresolved, instance)
	}
	w := &Watchpoint{Instance: instance, Expr: source, bound: bound, fusedID: -1}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.nextWatch++
	w.ID = rt.nextWatch
	rt.watches = append(rt.watches, w)
	rt.markDepsDirty()
	return w.ID, nil
}

// RemoveWatch deletes a watchpoint by id.
func (rt *Runtime) RemoveWatch(id int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, w := range rt.watches {
		if w.ID == id {
			rt.watches = append(rt.watches[:i], rt.watches[i+1:]...)
			rt.markDepsDirty()
			return true
		}
	}
	return false
}

// Watches lists active watchpoints.
func (rt *Runtime) Watches() []*Watchpoint {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*Watchpoint, len(rt.watches))
	copy(out, rt.watches)
	return out
}

// checkWatches runs at each clock edge before the breakpoint schedule;
// it returns a stop event when any watched value changed.
func (rt *Runtime) checkWatches(time uint64) *StopEvent {
	// Prefetch (and any pending union rebuild) before snapshotting, so
	// a concurrent RemoveWatch can never leave a snapshotted watch with
	// slots indexing rebuilt arrays (see evaluateGroup).
	rt.ensurePrefetch(time)
	rt.mu.Lock()
	watches := rt.watches
	rt.mu.Unlock()
	delta := rt.deltaOn()
	// When the fused schedule is live, watch expressions were computed by
	// the same whole-schedule program run (rebuildFused appends them
	// after the breakpoint conditions); consume those values instead of
	// re-executing each watch. A poisoned fused result (resOK false)
	// falls back to the exact per-watch path.
	var fs *fusedState
	if delta {
		fs = rt.fusedReady(time)
	}
	var ev *StopEvent
	for _, w := range watches {
		if delta && w.canSkip {
			// Every dependency is clean since the last successful
			// evaluation: the watched value is unchanged, so this edge
			// cannot produce a hit.
			continue
		}
		var b val.Bits
		var err error
		// The fused result, else the compiled program, else (no program,
		// or it failed) the general evaluator — the chain evalBP uses.
		if fs != nil && w.fusedID >= 0 && fs.resOK[w.fusedID] {
			b = fs.results[w.fusedID].ToBits()
		} else if v, cerr := rt.execCompiled(w.bound); cerr == nil {
			b = v.ToBits()
		} else {
			b, err = rt.evalBits(w.bound)
		}
		if err != nil {
			w.canSkip = false
			continue
		}
		if delta {
			w.canSkip = rt.slotsReadable(w.bound)
		}
		if !w.armed {
			w.armed = true
			w.last = b
			continue
		}
		if !b.CaseEq(w.last) || b.Width != w.last.Width {
			if ev == nil {
				ev = &StopEvent{Time: time, File: "<watch>", Watch: []WatchHit{}}
			}
			hit := WatchHit{
				ID:       w.ID,
				Instance: w.Instance,
				Expr:     w.Expr,
				Old:      w.last.V0,
				New:      b.V0,
			}
			// Values the uint64 fields cannot carry faithfully (x/z
			// bits, >64-bit magnitudes) travel as rendered literals.
			if w.last.HasX() || b.HasX() || w.last.IsWide() || b.IsWide() {
				hit.OldDisplay = w.last.String()
				hit.NewDisplay = b.String()
			}
			ev.Watch = append(ev.Watch, hit)
			w.last = b
		}
	}
	return ev
}

// WatchHit reports one triggered watchpoint.
type WatchHit struct {
	ID       int    `json:"id"`
	Instance string `json:"instance"`
	Expr     string `json:"expr"`
	Old      uint64 `json:"old"`
	New      uint64 `json:"new"`
	// OldDisplay/NewDisplay carry Verilog-literal renderings when the
	// values have x/z bits or exceed 64 bits; empty for plain two-state
	// values, keeping their frames byte-identical to the old encoding.
	OldDisplay string `json:"old_display,omitempty"`
	NewDisplay string `json:"new_display,omitempty"`
}
