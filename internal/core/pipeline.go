package core

import (
	"errors"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/val"
	"repro/internal/vpi"
)

// This file is the runtime half of the compiled condition pipeline. At
// insertion time every breakpoint/watch condition is compiled to a flat
// register program (expr.Compile) and its signal dependencies are
// resolved to simulator paths. At each clock edge the scheduler makes
// one batched backend read covering the union of every armed
// condition's dependencies (vpi.ReadBatch), caches the values for the
// cycle, and executes the compiled programs against the cache on the
// simulation goroutine — replacing the seed's tree-walk + one GetValue
// per signal per breakpoint + one goroutine spawned per group member
// per edge.

// boundExpr is one expression bound to simulator paths: a breakpoint's
// enable or user condition and a watch at arm time, an evaluate request
// per request.
type boundExpr struct {
	node expr.Node     // the tree the general evaluator walks
	prog *expr.Program // nil: general evaluator only
	// paths are the dependencies in prog.Deps order (the referenced
	// names when there is no program); verified marks paths confirmed
	// at bind time, and slots are their prefetch-cache slots (nil until
	// rebuildDeps assigns them, -1 for an unconfirmed path).
	paths    []string
	verified []bool
	slots    []int
	byName   map[string]string // every referenced name, for the general evaluator
}

// bind resolves every name an expression references through resolve,
// which returns the name's simulator path and whether that path was
// confirmed. It is the one binder: enable conditions resolve
// instance-local RTL names; user conditions, watches and evaluate
// requests resolve source names through resolveSourceName.
func bind(n expr.Node, prog *expr.Program, resolve func(name string) (string, bool)) *boundExpr {
	names := expr.Names(n)
	deps := names
	if prog != nil {
		deps = prog.Deps
	}
	b := &boundExpr{node: n, prog: prog, paths: make([]string, len(deps)),
		verified: make([]bool, len(deps)), byName: make(map[string]string, len(names))}
	for i, name := range deps {
		b.paths[i], b.verified[i] = resolve(name)
		b.byName[name] = b.paths[i]
	}
	// Names constant folding removed from the program can still be
	// reached by the general evaluator, which walks the unfolded tree.
	for _, name := range names {
		if _, done := b.byName[name]; !done {
			b.byName[name], _ = resolve(name)
		}
	}
	return b
}

// bindSource parses, compiles and binds a condition; an empty source
// binds to nil, an absent condition.
func bindSource(src string, resolve func(name string) (string, bool)) (*boundExpr, error) {
	if src == "" {
		return nil, nil
	}
	n, prog, err := expr.ParseCompile(src)
	if err != nil {
		return nil, err
	}
	return bind(n, prog, resolve), nil
}

// resolveSourceName resolves a source-level identifier to a simulator
// path: the breakpoint-scoped variable (bpID 0 means no scope; symbol
// table ids start at 1) → generator/instance variable →
// instance-local RTL name → the name as written, an absolute path.
// The second return value reports whether the path was verified
// against the symbol table or backend (probed through memo); an
// unverified name is returned as-is for the caller to probe or read at
// evaluation time.
func (rt *Runtime) resolveSourceName(bpID int64, instance, name string, memo map[string]bool) (string, bool) {
	if bpID != 0 {
		if rtlPath, err := rt.table.ResolveScopedVar(bpID, name); err == nil {
			return rt.remap.ToSim(rtlPath), true
		}
	}
	if full, ok := rt.generatorPath(instance, name); ok {
		return full, true
	}
	if local := rt.remap.ToSim(instance + "." + name); rt.exists(local, memo) {
		return local, true
	}
	return name, false
}

// exists probes whether the backend exposes a signal, answering from
// and recording into memo when it is not nil. A four-state read error
// proves the signal exists; its value just routes through the general
// evaluator instead of the prefetch cache.
func (rt *Runtime) exists(path string, memo map[string]bool) bool {
	if ok, done := memo[path]; done {
		return ok
	}
	_, err := rt.backend.GetValue(path)
	ok := err == nil || errors.Is(err, vpi.ErrFourState)
	if memo != nil {
		memo[path] = ok
	}
	return ok
}

// markDepsDirty schedules a dependency-union rebuild before the next
// prefetch. Callers must hold rt.mu.
func (rt *Runtime) markDepsDirty() { rt.depsDirty = true }

// rebuildDeps recomputes the union of every armed condition's simulator
// paths and assigns each program dependency its slot in the prefetched
// value slice. Runs on the simulation goroutine.
func (rt *Runtime) rebuildDeps() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.depUnion = rt.depUnion[:0]
	slotOf := make(map[string]int)
	slot := func(path string) int {
		s, ok := slotOf[path]
		if !ok {
			s = len(rt.depUnion)
			slotOf[path] = s
			rt.depUnion = append(rt.depUnion, path)
		}
		return s
	}
	// An unverified path gets slot -1 (kept out of the union, probed
	// per evaluation) so it cannot fail the batched read for everyone
	// else.
	assign := func(b *boundExpr) {
		if b == nil {
			return
		}
		b.slots = nil
		if len(b.paths) == 0 {
			return
		}
		b.slots = make([]int, len(b.paths))
		for i, p := range b.paths {
			b.slots[i] = -1
			if b.verified[i] {
				b.slots[i] = slot(p)
			}
		}
	}
	// Rebuild the per-group armed-member counts alongside the slots:
	// outside stepping, a group with none is never walked.
	rt.groupArmed = make([]int, len(rt.allGroups))
	for _, ibp := range rt.inserted {
		assign(ibp.enable)
		assign(ibp.cond)
		if gi, ok := rt.groupIdx[ibp.key()]; ok {
			rt.groupArmed[gi]++
		}
	}
	for _, w := range rt.watches {
		assign(w.bound)
		w.canSkip = false
	}
	// Invert only after every slot is assigned — watch assignment above
	// still extends the union.
	rt.slotWatches = make([][]*Watchpoint, len(rt.depUnion))
	for _, w := range rt.watches {
		for _, s := range w.bound.slots {
			rt.slotWatches[s] = append(rt.slotWatches[s], w)
		}
	}
	rt.prefetched = make([]eval.Value, len(rt.depUnion))
	rt.prefetchOK = make([]bool, len(rt.depUnion))
	rt.prefetchValid = false
	rt.diffBase = false
	if cap(rt.changedBuf) < len(rt.depUnion) {
		rt.changedBuf = make([]bool, len(rt.depUnion))
	}
	if cap(rt.incoming) < len(rt.depUnion) {
		rt.incoming = make([]eval.Value, len(rt.depUnion))
	}
	// Register the union as the backend's dirty-set watch list. Always
	// re-registered (even empty) so a stale list cannot linger; the
	// first poll after registration reports everything changed.
	if rt.reporter != nil {
		rt.reporter.TrackChanges(rt.depUnion)
	}
	// Recompile the whole-schedule fused program against the fresh slot
	// assignment (fused.go); its skip state resets with the union, so the
	// first edge after any breakpoint change evaluates everything.
	rt.rebuildFused()
}

// ensurePrefetch makes the per-cycle value cache current for time t:
// a batched backend read of the dependency union, instead of one
// GetValue per signal per breakpoint per edge. Values are cached per
// (cycle, signal); re-entry at the same time (further groups, the
// watch pass) hits the cache. When the backend reports per-edge signal
// activity (vpi.ChangeReporter), only the reported-dirty slots are
// re-read; every refreshed slot is diffed against its previous value
// and actual changes clear the skip flags of the fused conditions and
// watches depending on it. Runs on the simulation goroutine.
func (rt *Runtime) ensurePrefetch(t uint64) {
	rt.mu.Lock()
	dirty := rt.depsDirty
	rt.depsDirty = false
	rt.mu.Unlock()
	if dirty {
		rt.rebuildDeps()
	}
	if rt.prefetchValid && rt.prefetchTime == t {
		return
	}
	// hadValues: the cache holds an earlier value snapshot of this
	// union generation (only a dependency rebuild discards it), so a
	// delta report can bound what to re-read and value diffs against it
	// are meaningful. A mid-edge invalidation (stop handler returned,
	// SetTime rewound) clears only prefetchValid — the snapshot is
	// still the set of values every parked condition was last evaluated
	// against, exactly the baseline the diff must use: handler pokes
	// and rewinds surface as value differences (or a reporter dirt /
	// cannot-bound verdict) and un-park precisely the affected
	// conditions.
	hadValues := rt.diffBase
	rt.prefetchTime = t
	rt.prefetchValid = true
	if len(rt.depUnion) == 0 {
		return
	}
	if rt.deltaOn() && rt.reporter != nil {
		// Poll once per refresh. The report window spans since the
		// previous poll, which is never later than the cache's last
		// refresh, so a clean verdict always covers the cached value's
		// lifetime.
		changed := rt.changedBuf[:len(rt.depUnion)]
		if rt.reporter.ChangedInto(changed) && hadValues {
			rt.dirtySlots = rt.dirtySlots[:0]
			for i := range changed {
				if changed[i] || !rt.prefetchOK[i] {
					rt.dirtySlots = append(rt.dirtySlots, i)
				}
			}
			rt.statPartial.Add(1)
			rt.refreshSlots(rt.dirtySlots)
			return
		}
	}
	rt.refreshAll(hadValues)
}

// refreshAll re-reads the whole dependency union, diffing each slot
// against the previous snapshot (when one exists) to clear skip flags
// only for dependencies that actually moved.
func (rt *Runtime) refreshAll(hadValues bool) {
	in := rt.incoming[:len(rt.depUnion)]
	if err := vpi.ReadBatchInto(rt.backend, rt.depUnion, in); err == nil {
		for i := range in {
			rt.commitSlot(i, in[i], true, hadValues)
		}
		rt.diffBase = true
		return
	}
	// A path in the union failed (e.g. a condition naming a signal that
	// only resolves as an absolute path, or not at all). Fall back to
	// per-path reads so one bad name cannot starve every other
	// breakpoint; evaluations touching the missing slot fail per-eval
	// and fall back to the general evaluator.
	for i, p := range rt.depUnion {
		v, err := rt.backend.GetValue(p)
		rt.commitSlot(i, v, err == nil, hadValues)
	}
	rt.diffBase = true
}

// refreshSlots re-reads only the given union slots (the delta-bounded
// dirty set plus previously failed reads); clean slots keep their
// cached values, which the reporter contract guarantees are current.
func (rt *Runtime) refreshSlots(slots []int) {
	if len(slots) == 0 {
		return
	}
	if cap(rt.pathBuf) < len(slots) {
		rt.pathBuf = make([]string, len(slots))
		rt.valBuf = make([]eval.Value, len(slots))
	}
	paths, vals := rt.pathBuf[:len(slots)], rt.valBuf[:len(slots)]
	for k, s := range slots {
		paths[k] = rt.depUnion[s]
	}
	if err := vpi.ReadBatchInto(rt.backend, paths, vals); err == nil {
		for k, s := range slots {
			rt.commitSlot(s, vals[k], true, true)
		}
		return
	}
	for k, s := range slots {
		v, err := rt.backend.GetValue(paths[k])
		rt.commitSlot(s, v, err == nil, true)
	}
}

// commitSlot stores one refreshed union value. A slot whose value
// actually differs from the cached one (or whose read failed, or that
// has no valid baseline) dirties every fused condition and watch
// depending on it: their last verdicts no longer provably hold.
func (rt *Runtime) commitSlot(i int, v eval.Value, ok, hadValues bool) {
	if !hadValues || !ok || !rt.prefetchOK[i] || v != rt.prefetched[i] {
		rt.markSlotDirty(i)
	}
	rt.prefetched[i] = v
	rt.prefetchOK[i] = ok
}

// markSlotDirty clears the skip flags of every watch and fused
// condition depending on union slot i.
func (rt *Runtime) markSlotDirty(i int) {
	for _, w := range rt.slotWatches[i] {
		w.canSkip = false
	}
	rt.fused.fusedUnpark(i)
}

// invalidatePrefetch drops the cycle cache; called after the stop
// handler returns, since the user may have deposited values or changed
// the breakpoint set while the simulation was paused. The fused results
// derive from the cache, so they fall with it: the next consumer
// re-runs the fused program over the refetched slots (handler deposits
// surface as slot diffs there, un-parking exactly the affected
// conditions).
func (rt *Runtime) invalidatePrefetch() {
	rt.prefetchValid = false
	if fs := rt.fused; fs != nil {
		fs.valid = false
	}
}

// fetchDep returns dependency i of a compiled program, preferring the
// prefetched cycle cache and falling back to a direct backend read for
// dependencies outside the union (step-mode candidates) or failed
// slots.
func (rt *Runtime) fetchDep(b *boundExpr, i int) (eval.Value, error) {
	if b.slots != nil {
		// The bounds check is defensive: slot assignments are rebuilt
		// only before members are snapshotted, but a stale slot must
		// degrade to a direct read, never an out-of-range panic.
		if s := b.slots[i]; s >= 0 && s < len(rt.prefetchOK) && rt.prefetchOK[s] {
			return rt.prefetched[s], nil
		}
	}
	return rt.backend.GetValue(b.paths[i])
}

// errGeneralOnly routes an expression to the general evaluator: it has
// no compiled program, or SetGeneralEval is on.
var errGeneralOnly = errors.New("core: general evaluator only")

// execCompiled gathers a program's operands (cache-first) into the
// runtime's scratch buffer and executes it on the runtime's machine.
// Every caller runs on the simulation goroutine, one evaluation at a
// time, so the shared scratch needs no locking.
func (rt *Runtime) execCompiled(b *boundExpr) (eval.Value, error) {
	if b.prog == nil || rt.generalEval.Load() {
		return eval.Value{}, errGeneralOnly
	}
	n := len(b.prog.Deps)
	if cap(rt.opbuf) < n {
		rt.opbuf = make([]eval.Value, n)
	}
	ops := rt.opbuf[:n]
	for i := range ops {
		v, err := rt.fetchDep(b, i)
		if err != nil {
			return eval.Value{}, err
		}
		ops[i] = v
	}
	return b.prog.Exec(&rt.machine, ops)
}

// evalBits walks a bound expression with the general four-state
// evaluator, reading every name through its bound path.
func (rt *Runtime) evalBits(b *boundExpr) (val.Bits, error) {
	return expr.EvalBits(b.node, expr.BitsResolverFunc(func(name string) (val.Bits, error) {
		return vpi.ReadBits(rt.backend, b.byName[name])
	}))
}

// slotsReadable reports whether every dependency of a bound expression
// sits in a currently-readable prefetch slot — the eligibility
// condition for skipping it at clean edges.
func (rt *Runtime) slotsReadable(b *boundExpr) bool {
	if len(b.slots) != len(b.paths) {
		return false // union rebuild pending; stay conservative
	}
	for _, s := range b.slots {
		if s < 0 || s >= len(rt.prefetchOK) || !rt.prefetchOK[s] {
			return false
		}
	}
	return true
}

// fusable reports whether a bound expression can ride the fused
// schedule: it is absent (nil), or it compiled and every dependency is
// verified and slotted in the prefetch union.
func (b *boundExpr) fusable() bool {
	if b == nil {
		return true
	}
	if b.prog == nil || len(b.slots) != len(b.prog.Deps) {
		return false
	}
	for _, s := range b.slots {
		if s < 0 {
			return false
		}
	}
	return true
}
