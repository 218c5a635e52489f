// Package core implements the hgdb debugger runtime — the paper's
// breakpoint emulation layer (§3.2, Figure 2): breakpoint insertion
// against the symbol table, the Figure 2 scheduling loop executed
// inside the simulator's clock-edge callback, condition evaluation of
// breakpoint groups (§3.2's parallel evaluation, emulated sequentially
// on the simulation goroutine), source-level stack frame
// reconstruction with structured variables (§3.4), concurrent
// instances presented as threads (Figure 4), watchpoints, and
// intra-cycle plus (on replay backends) full reverse debugging (§3.2).
//
// Conditions compile once at insertion time to register bytecode
// (expr.Compile → eval.Machine) and each edge issues one batched read
// of the armed dependency union; on backends implementing
// vpi.ChangeReporter only the slots reported dirty are re-read (on the
// replay engine the change poll also syncs the state those reads come
// from). See DESIGN.md.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/symtab"
	"repro/internal/val"
	"repro/internal/vpi"
)

// Command tells the runtime how to proceed after a stop.
type Command int

const (
	// CmdContinue resumes until the next inserted breakpoint hits.
	CmdContinue Command = iota
	// CmdStep stops at the next source statement whose enable condition
	// holds, whether or not a breakpoint is inserted there (step-over).
	CmdStep
	// CmdReverseStep steps to the previous enabled source statement,
	// reversing the intra-cycle schedule; at the cycle boundary the
	// backend's SetTime is used when available (§3.2).
	CmdReverseStep
	// CmdDetach removes the runtime from the simulation; the design
	// runs freely afterwards.
	CmdDetach
)

func (c Command) String() string {
	switch c {
	case CmdContinue:
		return "continue"
	case CmdStep:
		return "step"
	case CmdReverseStep:
		return "reverse-step"
	case CmdDetach:
		return "detach"
	}
	return fmt.Sprintf("Command(%d)", int(c))
}

// Variable is one reconstructed variable value in a frame.
type Variable struct {
	// Name is the source-level (dotted) name, e.g. "io.out.bits".
	Name string `json:"name"`
	// Value is the current bits.
	Value uint64 `json:"value"`
	// Width is the signal width.
	Width int `json:"width"`
	// RTL is the full simulator path the value was fetched from.
	RTL string `json:"rtl"`
	// Unknown marks a variable whose backend read failed (a replay gap,
	// an optimized-away net). The variable is still emitted — frames
	// keep a deterministic shape — with Value/Width zero and this flag
	// set, and the marker travels the wire unchanged (core.StopEvent is
	// the protocol's stop payload).
	Unknown bool `json:"unknown,omitempty"`
	// X marks the unknown (x/z) bits of the low value word, VPI
	// aval/bval style: an X bit set means that position is not a known
	// 0/1, and the corresponding Value bit then distinguishes x (0)
	// from z (1). Two-state values leave it zero, so their wire frames
	// are byte-identical to the pre-four-state encoding.
	X uint64 `json:"x,omitempty"`
	// Hi/XHi extend the value and x planes beyond 64 bits (words 1..,
	// little-endian). Empty for values that fit one word.
	Hi  []uint64 `json:"hi,omitempty"`
	XHi []uint64 `json:"xhi,omitempty"`
}

// SetBits stores a four-state value into the variable's wire fields.
// The encoding is normalized — an all-zero x plane is dropped — so
// equal values always serialize identically regardless of how their
// val.Bits were built.
func (v *Variable) SetBits(b val.Bits) {
	v.Value = b.V0
	v.X = b.X0
	v.Width = b.Width
	v.Hi, v.XHi = nil, nil
	if b.IsWide() {
		v.Hi = append([]uint64(nil), b.VH...)
		for _, w := range b.XH {
			if w != 0 {
				v.XHi = append([]uint64(nil), b.XH...)
				break
			}
		}
	}
}

// BitsValue reconstructs the four-state value from the wire fields.
// Fields that arrived over the wire are normalized (masked to Width)
// rather than trusted.
func (v *Variable) BitsValue() val.Bits {
	if len(v.Hi) == 0 && len(v.XHi) == 0 {
		return val.FromPlanes([]uint64{v.Value}, []uint64{v.X}, v.Width)
	}
	vw := append([]uint64{v.Value}, v.Hi...)
	xw := append([]uint64{v.X}, v.XHi...)
	return val.FromPlanes(vw, xw, v.Width)
}

// HasX reports whether any bit of the value is x or z.
func (v *Variable) HasX() bool {
	if v.X != 0 {
		return true
	}
	for _, w := range v.XHi {
		if w != 0 {
			return true
		}
	}
	return false
}

// Display renders the variable for a human: decimal for known ≤64-bit
// values (what the debugger always showed), Verilog-style sized
// literals ("8'b1x0z", "128'hdead...") for four-state or wide ones,
// and "<unknown>" for failed reads.
func (v *Variable) Display() string {
	if v.Unknown {
		return "<unknown>"
	}
	return v.BitsValue().String()
}

// EqualValue reports whether two variables carry bit-identical value
// planes (shape — name, RTL path, width — is compared separately; see
// proto's sameShape).
func (v *Variable) EqualValue(o *Variable) bool {
	return v.Value == o.Value && v.X == o.X && v.Unknown == o.Unknown &&
		wordsEqual(v.Hi, o.Hi) && wordsEqual(v.XHi, o.XHi)
}

func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Thread is one concurrent hardware instance stopped at a source
// location (paper Fig. 4 B).
type Thread struct {
	// BreakpointID identifies the symtab breakpoint row.
	BreakpointID int64 `json:"breakpoint_id"`
	// Instance is the symtab-relative instance path.
	Instance string `json:"instance"`
	// Locals are the scope variables reconstructed for the frame.
	Locals []Variable `json:"locals"`
	// Generator are the instance-level generator variables.
	Generator []Variable `json:"generator"`
}

// StopEvent describes one debugger stop.
type StopEvent struct {
	// Time is the simulation time of the stop.
	Time uint64 `json:"time"`
	// File/Line/Col locate the generator source statement.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Threads are the instances that hit the location this cycle.
	Threads []Thread `json:"threads"`
	// Reverse reports whether the stop was reached by reverse
	// execution.
	Reverse bool `json:"reverse"`
	// StepStop reports a stop produced by stepping rather than an
	// inserted breakpoint.
	StepStop bool `json:"step_stop"`
	// Watch carries triggered watchpoints when the stop came from a
	// data breakpoint rather than a source location.
	Watch []WatchHit `json:"watch,omitempty"`
}

// Handler receives stop events and returns the next command. It runs on
// the simulation goroutine: the simulator is paused for as long as the
// handler takes — exactly the paper's model, where hgdb blocks inside
// the clock callback while the user inspects state.
type Handler func(*StopEvent) Command

// insertedBP is one armed emulated breakpoint.
type insertedBP struct {
	bp     symtab.Breakpoint
	enable expr.Node // nil = always enabled; parsed form
	cond   expr.Node // user condition; nil = none; parsed form
	// paths precomputes name → full simulator path for every identifier
	// the conditions reference, for the general evaluator's resolver.
	paths map[string]string

	// Compiled pipeline state: the conditions lowered to register
	// programs at insertion time, their dependency paths aligned with
	// each program's Deps order, and the dependencies' slots in the
	// runtime's per-cycle prefetch cache (-1/nil when not prefetched).
	enableProg  *expr.Program
	condProg    *expr.Program
	enablePaths []string
	condPaths   []string
	enableSlots []int
	condSlots   []int
	// The verified flags mark dependencies whose path resolution was
	// confirmed against the backend at arm time; unverified names stay
	// out of the batched prefetch union so one bad name cannot fail
	// the whole batch, and are probed per evaluation instead.
	enableVerified []bool
	condVerified   []bool
}

// group is a set of breakpoints sharing one source statement; the
// scheduler evaluates a group's members (instances) together.
type group struct {
	file    string
	line    int
	col     int
	ordinal int
	bps     []*insertedBP
}

func (g *group) key() groupKey {
	return groupKey{file: g.file, line: g.line, ordinal: g.ordinal}
}

type groupKey struct {
	file    string
	line    int
	ordinal int
}

// Runtime is the hgdb debugger runtime.
type Runtime struct {
	backend vpi.Interface
	table   *symtab.Table
	remap   *symtab.Remap

	mu       sync.Mutex
	inserted map[int64]*insertedBP
	handler  Handler

	// stepping state
	stepArmed    bool // stop at the next enabled statement
	reverseArmed bool // schedule in reverse on the next evaluation
	detached     bool

	watches   []*Watchpoint
	nextWatch int

	cbID      int
	attached  bool
	evalCount uint64 // statistics: breakpoint condition evaluations
	stopCount uint64
	allGroups []*group // all symtab statements, for stepping

	// queries holds pending debugger queries awaiting a drain point
	// with stable simulation state; execMu serializes every job's
	// execution across all drain points so two queries can never touch
	// the unsynchronized backend concurrently; edgeSeen counts clock
	// edges so the idle fallback can tell a quiet simulator from one
	// that came alive mid-grace (see query.go).
	queries  chan *QueryJob
	execMu   sync.Mutex
	edgeSeen atomic.Uint64
	// idleSince memoizes "the simulation was idle at edge count N":
	// holds edgeSeen+1 as observed by the last inline fallback (0 =
	// none), letting later queries skip the idle-grace wait until an
	// edge advances the counter (see query.go).
	idleSince atomic.Uint64

	// Per-cycle prefetch cache (simulation-goroutine state, except
	// depsDirty which rt.mu guards): the union of every armed
	// condition's dependency paths, their batched values for the
	// current cycle, and per-slot fetch success.
	depsDirty     bool
	depUnion      []string
	prefetched    []eval.Value
	prefetchOK    []bool
	prefetchTime  uint64
	prefetchValid bool

	// Activity-driven scheduling state (simulation goroutine only,
	// except the atomics). The fused schedule skips any breakpoint
	// condition whose last evaluation was a sound miss and whose operand
	// slots have been clean at every cache refresh since, and watches
	// skip likewise; dirt arrives either from the backend's
	// vpi.ChangeReporter poll (which also lets the refresh re-read only
	// the dirty slots) or from value diffing on a full refresh. See
	// DESIGN.md "Activity-driven scheduling".
	reporter    vpi.ChangeReporter // backend capability; nil if absent
	deltaOff    atomic.Bool        // SetExhaustiveEval escape hatch
	generalEval atomic.Bool        // SetGeneralEval: force the four-state evaluator
	changedBuf  []bool             // reporter poll scratch, aligned with depUnion
	incoming    []eval.Value       // refresh scratch (read-then-diff)
	dirtySlots  []int              // slots to refresh this edge (partial path)
	pathBuf     []string           // partial-refresh path gather scratch
	valBuf      []eval.Value       // partial-refresh value scatter scratch
	diffBase    bool               // prefetched holds values of this union generation

	// Scheduling indexes rebuilt with the dependency union: each
	// group's position in allGroups, the slot→watches inverted index,
	// and the armed-member count of each group.
	groupIdx    map[groupKey]int
	slotWatches [][]*Watchpoint
	groupArmed  []int

	// Activity statistics (atomic: benchmarks read them cross-routine).
	statSkipped   atomic.Uint64 // armed groups whose fused conditions were all parked misses
	statEvaluated atomic.Uint64 // groups evaluated with at least one member
	statPartial   atomic.Uint64 // cache refreshes bounded by a delta report

	// Condition evaluation scratch (simulation goroutine only): the
	// group member snapshot, and the one machine and operand buffer
	// every compiled breakpoint and watch program executes on.
	memberBuf []*insertedBP
	machine   eval.Machine
	opbuf     []eval.Value

	// Fused schedule compilation state (see fused.go): the whole-schedule
	// fused program rebuilt with the dependency union.
	fused         *fusedState
	statFusedRuns atomic.Uint64 // fused whole-schedule executions

	// Stop-frame plans (see frames.go). instPlans holds every
	// instance's generator plan, built in New and read-only afterwards
	// (query goroutines read it). localPlans holds each stopped
	// breakpoint's scope plan; it and the slot table every plan
	// indexes grow lazily on the simulation goroutine after New.
	instPlans    map[string]*instancePlan
	localPlans   map[int64]framePlan
	frameSlots   []frameSlot
	frameSlotIdx map[frameSlot]int32
}

// New attaches a runtime to a backend and symbol table. The design is
// located inside the simulated hierarchy via instance-name matching.
func New(backend vpi.Interface, table *symtab.Table) (*Runtime, error) {
	remap, err := symtab.NewRemap(backend.Hierarchy(), table)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		backend:  backend,
		table:    table,
		remap:    remap,
		inserted: map[int64]*insertedBP{},
		queries:  make(chan *QueryJob, queryQueueDepth),
	}
	rt.localPlans, rt.frameSlotIdx = map[int64]framePlan{}, map[frameSlot]int32{}
	rt.instPlans = rt.buildInstancePlans()
	rt.allGroups = rt.buildAllGroups()
	rt.groupIdx = make(map[groupKey]int, len(rt.allGroups))
	for i, g := range rt.allGroups {
		rt.groupIdx[g.key()] = i
	}
	if cr, ok := backend.(vpi.ChangeReporter); ok {
		rt.reporter = cr
	}
	// Build the (empty) dependency union and per-group armed counts
	// up front so the scheduler never sees them nil — stepping
	// can run before any breakpoint is armed.
	rt.rebuildDeps()
	rt.cbID = backend.OnClockEdge(rt.onEdge)
	rt.attached = true
	return rt, nil
}

// SetExhaustiveEval disables (on=true) or re-enables activity-driven
// scheduling: with exhaustive evaluation every group is re-evaluated at
// every clock edge, the seed behavior delta scheduling is
// differentially tested against. Call before driving the simulation.
func (rt *Runtime) SetExhaustiveEval(on bool) { rt.deltaOff.Store(on) }

// deltaOn reports whether activity-driven scheduling is active.
func (rt *Runtime) deltaOn() bool { return !rt.deltaOff.Load() }

// SetGeneralEval (on=true) forces every condition through the general
// four-state evaluator (expr.EvalBits) instead of the compiled two-state
// pipeline — the differential baseline that pins the fast path
// bit-identical to four-state semantics on fully known designs. It
// also suppresses fused execution, which is a two-state specialization
// of the same conditions. Call before driving the simulation.
func (rt *Runtime) SetGeneralEval(on bool) { rt.generalEval.Store(on) }

// FuseInfo reports the current fused schedule's shape: fused condition
// count, CSE shared segments, shared-register reads those segments
// replaced, and deduplicated operand count. ok is false when no
// schedule is built (no fusable condition armed, or a schedule the
// fuser rejected).
func (rt *Runtime) FuseInfo() (stats expr.FuseStats, ok bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.fused == nil || rt.fused.sched == nil {
		return expr.FuseStats{}, false
	}
	return rt.fused.sched.Stats, true
}

// FusedRuns reports how many times the fused whole-schedule program has
// executed (at most once per clock edge plus handler invalidations).
func (rt *Runtime) FusedRuns() uint64 { return rt.statFusedRuns.Load() }

// ActivityStats returns counters for the activity-driven scheduler:
// armed groups skipped as provably-clean misses, groups actually
// evaluated, and cache refreshes that a backend delta report bounded to
// the dirty subset.
func (rt *Runtime) ActivityStats() (skipped, evaluated, partialRefreshes uint64) {
	return rt.statSkipped.Load(), rt.statEvaluated.Load(), rt.statPartial.Load()
}

// buildAllGroups precomputes the absolute ordering of every potential
// breakpoint (§3.2: "Before the simulation starts, we compute the
// absolute ordering of every potential breakpoint").
func (rt *Runtime) buildAllGroups() []*group {
	byKey := map[groupKey]*group{}
	var order []groupKey
	for _, bp := range rt.table.AllBreakpoints() {
		ibp, err := rt.prepare(bp, "")
		if err != nil {
			continue
		}
		g, ok := byKey[ibp.key()]
		if !ok {
			g = &group{file: bp.Filename, line: bp.Line, col: bp.Col, ordinal: bp.Order}
			byKey[ibp.key()] = g
			order = append(order, ibp.key())
		}
		g.bps = append(g.bps, ibp)
	}
	groups := make([]*group, 0, len(order))
	for _, k := range order {
		groups = append(groups, byKey[k])
	}
	sortGroups(groups)
	return groups
}

func sortGroups(groups []*group) {
	sort.SliceStable(groups, func(i, j int) bool {
		a, b := groups[i], groups[j]
		if a.file != b.file {
			return a.file < b.file
		}
		return a.ordinal < b.ordinal
	})
}

func (ibp *insertedBP) key() groupKey {
	return groupKey{file: ibp.bp.Filename, line: ibp.bp.Line, ordinal: ibp.bp.Order}
}

// generalOnly reports whether any of the breakpoint's conditions parsed
// but did not compile (four-state literals, wide constants): such a
// member evaluates exclusively through the general four-state
// evaluator, its dependencies stay out of the prefetch union, and it
// stays out of the fused schedule, so it is evaluated at every edge.
func (ibp *insertedBP) generalOnly() bool {
	return (ibp.enable != nil && ibp.enableProg == nil) ||
		(ibp.cond != nil && ibp.condProg == nil)
}

// prepare parses and compiles the enable and user conditions of a
// breakpoint, then resolves every dependency to its simulator path —
// the compile-once half of the pipeline; per-cycle evaluation only
// executes the compiled programs.
func (rt *Runtime) prepare(bp symtab.Breakpoint, userCond string) (*insertedBP, error) {
	ibp := &insertedBP{bp: bp}
	if bp.Enable != "" {
		// ParseCompile shares one immutable (AST, program) pair across
		// the N instances of a generated statement — and across re-arms —
		// instead of recompiling the identical source N times.
		n, p, err := expr.ParseCompile(bp.Enable)
		if err != nil {
			return nil, fmt.Errorf("core: bad enable condition %q: %w", bp.Enable, err)
		}
		ibp.enable, ibp.enableProg = n, p
	}
	if userCond != "" {
		n, p, err := expr.ParseCompile(userCond)
		if err != nil {
			return nil, fmt.Errorf("core: bad breakpoint condition %q: %w", userCond, err)
		}
		ibp.cond, ibp.condProg = n, p
	}
	rt.precomputePaths(ibp)
	return ibp, nil
}

// precomputePaths resolves every identifier in the breakpoint's
// compiled conditions to its full simulator path once, at arm time.
// The dependency lists come from the compiled programs (constant
// folding may eliminate references the raw AST still mentions).
func (rt *Runtime) precomputePaths(ibp *insertedBP) {
	ibp.paths = map[string]string{}
	inst := ibp.bp.InstanceName
	if ibp.enableProg != nil {
		// Enable conditions speak in instance-local RTL names. Probe
		// each mapped path so a signal the backend does not expose
		// (e.g. optimized away) stays out of the batch union.
		ibp.enablePaths = make([]string, len(ibp.enableProg.Deps))
		ibp.enableVerified = make([]bool, len(ibp.enableProg.Deps))
		for i, n := range ibp.enableProg.Deps {
			p := rt.remap.ToSim(inst + "." + n)
			ibp.paths[n] = p
			ibp.enablePaths[i] = p
			// A four-state read error still proves the signal exists —
			// its value just needs the general evaluator, which the
			// per-slot prefetch failure routes to.
			_, err := rt.backend.GetValue(p)
			ibp.enableVerified[i] = err == nil || errors.Is(err, vpi.ErrFourState)
		}
	}
	if ibp.condProg != nil {
		// User conditions speak in source-level names; resolve with the
		// shared scope → generator → local-RTL → absolute chain
		// (watchpoints use the identical chain, see AddWatch).
		ibp.condPaths = make([]string, len(ibp.condProg.Deps))
		ibp.condVerified = make([]bool, len(ibp.condProg.Deps))
		for i, n := range ibp.condProg.Deps {
			if p, done := ibp.paths[n]; done {
				// Shared with the enable condition: inherit its
				// verification result.
				ibp.condPaths[i] = p
				ibp.condVerified[i] = verifiedIn(ibp.enableProg, ibp.enableVerified, n)
				continue
			}
			// Unverified names stay as written and are probed as
			// absolute paths at evaluation time.
			p, ok := rt.resolveSourceName(ibp.bp.ID, inst, n)
			ibp.paths[n] = p
			ibp.condPaths[i] = p
			ibp.condVerified[i] = ok
		}
	}
	// Conditions without a compiled program (general-evaluator-only:
	// four-state literals, wide constants) still get their names
	// resolved through the same chains, so the EvalBits resolver sees
	// the paths the compiled pipeline would have used.
	if ibp.enable != nil && ibp.enableProg == nil {
		for _, n := range expr.Names(ibp.enable) {
			if _, done := ibp.paths[n]; !done {
				ibp.paths[n] = rt.remap.ToSim(inst + "." + n)
			}
		}
	}
	if ibp.cond != nil && ibp.condProg == nil {
		for _, n := range expr.Names(ibp.cond) {
			if _, done := ibp.paths[n]; !done {
				p, _ := rt.resolveSourceName(ibp.bp.ID, inst, n)
				ibp.paths[n] = p
			}
		}
	}
}

// verifiedIn reports whether name is a verified dependency of prog.
func verifiedIn(prog *expr.Program, verified []bool, name string) bool {
	if prog == nil {
		return false
	}
	for i, d := range prog.Deps {
		if d == name {
			return verified[i]
		}
	}
	return false
}

// SetHandler installs the stop handler. Without a handler, hits
// auto-continue.
func (rt *Runtime) SetHandler(h Handler) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.handler = h
}

// AddBreakpoint arms every emulated breakpoint at file:line (one per
// matching statement per instance), with an optional user condition in
// the debugger expression language. It returns the armed breakpoint
// ids.
func (rt *Runtime) AddBreakpoint(file string, line int, cond string) ([]int64, error) {
	bps := rt.table.BreakpointsAt(file, line)
	if len(bps) == 0 {
		return nil, fmt.Errorf("core: no breakpoint at %s:%d", file, line)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var ids []int64
	for _, bp := range bps {
		ibp, err := rt.prepare(bp, cond)
		if err != nil {
			return nil, err
		}
		rt.inserted[bp.ID] = ibp
		ids = append(ids, bp.ID)
	}
	rt.markDepsDirty()
	return ids, nil
}

// AddBreakpointInstance arms breakpoints at file:line for one specific
// instance only — the per-thread breakpoint scoping an IDE offers when
// the user picks a single hardware thread (Fig. 4 B).
func (rt *Runtime) AddBreakpointInstance(file string, line int, instance, cond string) ([]int64, error) {
	bps := rt.table.BreakpointsAt(file, line)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var ids []int64
	for _, bp := range bps {
		if bp.InstanceName != instance {
			continue
		}
		ibp, err := rt.prepare(bp, cond)
		if err != nil {
			return nil, err
		}
		rt.inserted[bp.ID] = ibp
		ids = append(ids, bp.ID)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: no breakpoint at %s:%d in instance %s", file, line, instance)
	}
	rt.markDepsDirty()
	return ids, nil
}

// RemoveBreakpoint disarms all breakpoints at file:line; line <= 0
// disarms the whole file.
func (rt *Runtime) RemoveBreakpoint(file string, line int) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	removed := 0
	for id, ibp := range rt.inserted {
		if ibp.bp.Filename == file && (line <= 0 || ibp.bp.Line == line) {
			delete(rt.inserted, id)
			removed++
		}
	}
	if removed > 0 {
		rt.markDepsDirty()
	}
	return removed
}

// ClearBreakpoints disarms everything.
func (rt *Runtime) ClearBreakpoints() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.inserted = map[int64]*insertedBP{}
	rt.markDepsDirty()
}

// ListBreakpoints returns the armed breakpoints in scheduling order.
func (rt *Runtime) ListBreakpoints() []symtab.Breakpoint {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []symtab.Breakpoint
	for _, ibp := range rt.inserted {
		out = append(out, ibp.bp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// InterruptNext arms a step stop at the next evaluated statement
// (asynchronous pause).
func (rt *Runtime) InterruptNext() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.stepArmed = true
}

// Detach removes the clock callback; the simulation runs free.
func (rt *Runtime) Detach() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.attached {
		rt.backend.RemoveCallback(rt.cbID)
		rt.attached = false
		// Release the backend's dirty-signal tracking: an empty
		// registration disables reporting, so the free-running design
		// stops paying the per-commit change compares for a debugger
		// that is gone.
		if rt.reporter != nil {
			rt.reporter.TrackChanges(nil)
		}
	}
	rt.detached = true
}

// Stats returns (condition evaluations, stops) counters.
func (rt *Runtime) Stats() (evals, stops uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.evalCount, rt.stopCount
}

// Backend exposes the underlying vpi interface (for value get/set
// passthrough in the debugger protocol).
func (rt *Runtime) Backend() vpi.Interface { return rt.backend }

// Table exposes the symbol table.
func (rt *Runtime) Table() *symtab.Table { return rt.table }

// Remap exposes the hierarchy mapping.
func (rt *Runtime) Remap() *symtab.Remap { return rt.remap }
