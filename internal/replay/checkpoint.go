package replay

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/val"
	"repro/internal/vcd"
)

// This file is the checkpointed state machine behind NewStore. The
// block store holds undecoded change records; reconstructing "the value
// of signal X at time t" therefore has two paths:
//
//   - Materialized signals (the debugger's breakpoint/watch dependency
//     union, advised via Prefetch) answer by binary search over their
//     decoded timelines — per-cycle condition evaluation never moves
//     any shared state and stays allocation-free.
//   - Everything else (frame reconstruction at a stop, raw get_value
//     requests) reads from a full signal-state array that is synced to
//     the query time by replaying change records. Forward syncs are
//     incremental; backward syncs restore the nearest value-snapshot
//     checkpoint at or before t and replay forward from there, so a
//     reverse step costs O(checkpoint interval) records instead of
//     O(t) — the difference between usable and unusable reverse
//     debugging on long traces.
//
// Checkpoints are created lazily: whenever a forward sync crosses a
// checkpoint boundary for the first time, the state array and stream
// cursor are snapshotted. Boundaries inside record-free stretches are
// skipped — state cannot change there, so the snapshot before the gap
// serves any seek into it — and backward syncs find the nearest
// existing snapshot by binary search over the sorted checkpoint times.

// DefaultMaxCheckpoints bounds the adaptive checkpoint interval: when
// no explicit interval is configured, the interval is chosen so at most
// this many snapshots exist for the whole trace. Snapshot memory is
// then bounded by 16 B × state words × DefaultMaxCheckpoints (value and
// unknown-bit planes, one word per 64 bits of each signal) while
// reverse seeks still skip all but maxTime/256 of the trace.
const DefaultMaxCheckpoints = 256

// StoreEngineOption configures NewStore.
type StoreEngineOption func(*storeBacking)

// WithCheckpointInterval sets the distance in trace time units between
// value-snapshot checkpoints. Smaller intervals make backward seeks
// cheaper and snapshots more numerous; 0 restores the adaptive default
// (trace length / DefaultMaxCheckpoints, at least one block).
func WithCheckpointInterval(interval uint64) StoreEngineOption {
	return func(sb *storeBacking) { sb.interval = interval }
}

// snapshot is one restore point: the full packed signal-state planes
// and the change-stream cursor at a checkpoint boundary.
type snapshot struct {
	state *vcd.State
	cur   vcd.Cursor
}

// storeBacking is the replay state behind an Engine: value queries at
// an arbitrary time over a vcd.Store. The Engine owns time itself,
// clock-edge callbacks, and the vpi surface.
type storeBacking struct {
	st       *vcd.Store
	interval uint64

	// mu guards the mutable replay state below. Syncing moves shared
	// state, and the debug server dispatches raw get_value reads on
	// connection goroutines while the simulation goroutine replays —
	// both can land in sync at once. Materialized reads never take the
	// lock; they see an immutable timeline.
	mu sync.Mutex

	// Replay state: the packed four-state planes of every signal at
	// stateTime (laid out by the store; read via StateBits); cur is the
	// stream position just past the last applied record.
	state     *vcd.State
	stateTime uint64
	cur       vcd.Cursor

	// cps maps checkpoint time → snapshot; cpTimes holds the same times
	// sorted ascending so restore can binary-search the nearest one.
	cps     map[uint64]*snapshot
	cpTimes []uint64

	// Dirty-set tracking (vpi.ChangeReporter): trSlot maps signal index
	// → tracked slot, trCur walks the store's change-record stream so a
	// forward poll costs exactly the records since the last poll — the
	// per-block change records the store already holds give the edge's
	// change set for free. A backward or discontinuous move re-anchors
	// the cursor with SeekCursor and reports "cannot bound" once.
	// Tracking state is single-consumer (the debugger runtime polls
	// from the simulation goroutine) and never touches mu-guarded
	// replay state.
	trSlot    []int32
	trIdx     []int // tracked slot -> signal index, -1 unresolved
	trPending []bool
	trAlways  []int // tracked slots with unresolvable paths
	trCur     vcd.Cursor
	trLastT   uint64
	trFresh   bool
	trActive  bool
}

func newStoreBacking(st *vcd.Store, opts ...StoreEngineOption) *storeBacking {
	sb := &storeBacking{
		st:    st,
		state: st.NewState(),
		cps:   map[uint64]*snapshot{},
	}
	for _, o := range opts {
		o(sb)
	}
	if sb.interval == 0 {
		sb.interval = st.MaxTime/DefaultMaxCheckpoints + 1
		if bs := st.BlockSize(); sb.interval < bs {
			sb.interval = bs
		}
	}
	sb.resetToZero()
	return sb
}

// resetToZero puts the replay state at time 0 — which is NOT the zero
// state: a trace's #0 records ($dumpvars initial values in real
// simulator output) must be applied, or every read at t=0 would return
// 0 instead of the recorded initial values.
func (sb *storeBacking) resetToZero() {
	sb.state.Zero()
	sb.cur = sb.st.ApplyUpTo(vcd.Cursor{}, 0, sb.state)
	sb.stateTime = 0
}

func (sb *storeBacking) checkpoints() int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return len(sb.cps)
}

func (sb *storeBacking) prefetch(paths []string) { sb.st.Materialize(paths...) }

// trackChanges registers the dirty-set watch list; changedInto then
// reports, for each tracked path, whether it may have changed since
// the previous poll (the vpi.ChangeReporter capability at time t).
func (sb *storeBacking) trackChanges(paths []string) {
	if sb.trSlot == nil && len(paths) > 0 {
		sb.trSlot = make([]int32, sb.st.NumSignals())
		for i := range sb.trSlot {
			sb.trSlot[i] = -1
		}
	}
	// Clear the previous registration via its index list, not a sweep
	// of every signal in the trace.
	for _, idx := range sb.trIdx {
		if idx >= 0 {
			sb.trSlot[idx] = -1
		}
	}
	sb.trIdx = sb.trIdx[:0]
	sb.trPending = make([]bool, len(paths))
	sb.trAlways = sb.trAlways[:0]
	for slot, p := range paths {
		ts, ok := sb.st.Signal(p)
		if !ok {
			sb.trIdx = append(sb.trIdx, -1)
			sb.trAlways = append(sb.trAlways, slot)
			continue
		}
		sb.trIdx = append(sb.trIdx, ts.Index())
		sb.trSlot[ts.Index()] = int32(slot)
	}
	sb.trActive = len(paths) > 0
	sb.trFresh = true
}

func (sb *storeBacking) changedInto(t uint64, dst []bool) bool {
	if !sb.trActive || len(dst) < len(sb.trPending) {
		return false
	}
	if sb.trFresh || t < sb.trLastT {
		// First poll after a registration, or time moved backwards:
		// nothing bounds the change set. Re-anchor the cursor at t so
		// the next forward poll scans exactly (t, t'].
		discontinuous := !sb.trFresh
		sb.trFresh = false
		sb.trCur = sb.st.SeekCursor(t)
		sb.trLastT = t
		for i := range sb.trPending {
			sb.trPending[i] = false
			dst[i] = true
		}
		return !discontinuous
	}
	// Forward: every change record in (trLastT, t] names a signal whose
	// value moved; mark the tracked ones.
	sb.trCur = sb.st.ScanChanges(sb.trCur, t, func(sig int) {
		if slot := sb.trSlot[sig]; slot >= 0 {
			sb.trPending[slot] = true
		}
	})
	sb.trLastT = t
	for i, p := range sb.trPending {
		dst[i] = p
		sb.trPending[i] = false
	}
	for _, slot := range sb.trAlways {
		dst[slot] = true
	}
	return true
}

// bits returns the signal's recorded four-state value at time t —
// traces are the one backend whose native value plane really is
// four-state; the Engine lowers it onto the two-state vpi surface
// where possible.
func (sb *storeBacking) bits(path string, t uint64) (val.Bits, error) {
	ts, ok := sb.st.Signal(path)
	if !ok {
		return val.Bits{}, fmt.Errorf("replay: unknown signal %q", path)
	}
	if ts.Materialized() {
		// Lazy fast path: the decoded timeline answers any time without
		// touching the shared state array — lock-free.
		return ts.BitsAt(t), nil
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.sync(t)
	if err := sb.st.Err(); err != nil {
		// A corrupt or unreadable block stopped the walk mid-stream; the
		// state array is only synced up to the damage, so surface the
		// store failure rather than a silently stale value.
		return val.Bits{}, err
	}
	return sb.st.StateBits(sb.state, ts), nil
}

// sync moves the replay state to time t.
func (sb *storeBacking) sync(t uint64) {
	if t == sb.stateTime {
		return
	}
	if t < sb.stateTime {
		sb.restore(t)
	}
	// Forward apply, snapshotting checkpoint boundaries as the sweep
	// crosses them. Record-free stretches (timestamps count timescale
	// units, so real dumps have huge gaps) are jumped in one step with
	// no per-boundary work: state cannot change there, and the snapshot
	// before a gap already serves any backward seek into it. Sweep cost
	// is therefore O(records applied + snapshots taken), never
	// O(t / interval).
	for sb.stateTime < t {
		nt, ok := sb.st.NextChangeTime(sb.cur)
		if !ok || nt > t {
			// No records in (stateTime, t]: values at t are identical.
			sb.stateTime = t
			return
		}
		next := (sb.stateTime/sb.interval + 1) * sb.interval
		if nt > next {
			// Jump the gap: land on the last boundary at or before the
			// next record so the upcoming interval gets its snapshot.
			next = (nt / sb.interval) * sb.interval
		}
		if next > t {
			break
		}
		sb.cur = sb.st.ApplyUpTo(sb.cur, next, sb.state)
		sb.stateTime = next
		if _, ok := sb.cps[next]; !ok {
			sn := &snapshot{state: sb.state.Clone(), cur: sb.cur}
			sb.cps[next] = sn
			// Insert in sorted position: snapshots are usually created in
			// ascending order, but a partial sweep that stops short of a
			// boundary, a later gap-jump past it, and a rewind-and-resweep
			// can create an earlier boundary after later ones — restore's
			// binary search needs cpTimes sorted regardless.
			i := sort.Search(len(sb.cpTimes), func(i int) bool { return sb.cpTimes[i] > next })
			sb.cpTimes = append(sb.cpTimes, 0)
			copy(sb.cpTimes[i+1:], sb.cpTimes[i:])
			sb.cpTimes[i] = next
		}
	}
	if t > sb.stateTime {
		sb.cur = sb.st.ApplyUpTo(sb.cur, t, sb.state)
		sb.stateTime = t
	}
}

// restore rewinds the state to the nearest checkpoint at or before t
// (the time-0 state when none exists yet).
func (sb *storeBacking) restore(t uint64) {
	i := sort.Search(len(sb.cpTimes), func(i int) bool { return sb.cpTimes[i] > t }) - 1
	if i < 0 {
		sb.resetToZero()
		return
	}
	ck := sb.cpTimes[i]
	sn := sb.cps[ck]
	sb.state.CopyFrom(sn.state)
	sb.cur = sn.cur
	sb.stateTime = ck
}
