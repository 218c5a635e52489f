package replay

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/val"
	"repro/internal/vcd"
)

// This file is the checkpointed state machine behind NewStore. The
// block store holds undecoded change records; every value the engine
// returns — per-edge condition reads, frame reconstruction at a stop,
// raw get_value requests — comes from one full signal-state array that
// is synced to the query time by replaying change records. Forward
// syncs are incremental; backward syncs restore the nearest
// value-snapshot checkpoint at or before t and replay forward from
// there, so a reverse step costs O(checkpoint interval) records
// instead of O(t) — the difference between usable and unusable reverse
// debugging on long traces.
//
// The per-edge change poll (vpi.ChangeReporter) is that same forward
// sync: the sweep that applies an edge's records also marks the
// tracked signals among them, so each record is decoded once per edge
// and the reads that follow the poll are O(1) state lookups.
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

	// mu guards all mutable state below. Syncing moves shared state,
	// and the debug server dispatches raw get_value reads on connection
	// goroutines while the simulation goroutine replays and polls — any
	// of them can land in sync at once.
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

	// Dirty-set tracking (vpi.ChangeReporter). tr.Slot maps signal
	// index → tracked slot; every forward sweep of the state array sets
	// tr.Pending for the tracked signals whose records it applies,
	// whoever asked for the sweep (the poll, a raw read, a frame read
	// after a reverse seek). Only changedInto clears the marks, and it
	// syncs to the poll time first, so after a poll at T every record
	// in (T, highest state time reached since T] is marked: restores
	// only move backwards, and the sweep back up re-marks rather than
	// skips.
	tr       vcd.ChangeMarks
	trIdx    []int // tracked slot -> signal index, -1 unresolved
	trAlways []int // tracked slots with unresolvable paths
	trLastT  uint64
	trFresh  bool
	trActive bool
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
	sb.cur = sb.st.ApplyUpTo(vcd.Cursor{}, 0, sb.state, nil)
	sb.stateTime = 0
}

func (sb *storeBacking) checkpoints() int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return len(sb.cps)
}

// trackChanges registers the dirty-set watch list; changedInto then
// reports, for each tracked path, whether it may have changed since
// the previous poll (the vpi.ChangeReporter capability at time t).
func (sb *storeBacking) trackChanges(paths []string) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.tr.Slot == nil && len(paths) > 0 {
		sb.tr.Slot = make([]int32, sb.st.NumSignals())
		for i := range sb.tr.Slot {
			sb.tr.Slot[i] = -1
		}
	}
	// Clear the previous registration via its index list, not a sweep
	// of every signal in the trace.
	for _, idx := range sb.trIdx {
		if idx >= 0 {
			sb.tr.Slot[idx] = -1
		}
	}
	sb.trIdx = sb.trIdx[:0]
	sb.tr.Pending = make([]bool, len(paths))
	sb.trAlways = sb.trAlways[:0]
	for slot, p := range paths {
		ts, ok := sb.st.Signal(p)
		if !ok {
			sb.trIdx = append(sb.trIdx, -1)
			sb.trAlways = append(sb.trAlways, slot)
			continue
		}
		sb.trIdx = append(sb.trIdx, ts.Index())
		sb.tr.Slot[ts.Index()] = int32(slot)
	}
	sb.trActive = len(paths) > 0
	sb.trFresh = true
}

// marks is the change-mark sink forward sweeps write, nil while
// nothing is tracked.
func (sb *storeBacking) marks() *vcd.ChangeMarks {
	if !sb.trActive {
		return nil
	}
	return &sb.tr
}

// changedInto syncs the state to t — the edge's one record walk, which
// marks the tracked signals it applies — then reports and clears the
// marks gathered since the previous poll.
func (sb *storeBacking) changedInto(t uint64, dst []bool) bool {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if !sb.trActive || len(dst) < len(sb.tr.Pending) {
		return false
	}
	sb.sync(t)
	// The first poll after a registration reports every path; a poll
	// behind the previous one cannot bound the change set at all.
	backward := !sb.trFresh && t < sb.trLastT
	all := sb.trFresh || backward
	sb.trFresh = false
	sb.trLastT = t
	for i, p := range sb.tr.Pending {
		dst[i] = p || all
		sb.tr.Pending[i] = false
	}
	for _, slot := range sb.trAlways {
		dst[slot] = true
	}
	return !backward
}

// bits returns the signal's recorded four-state value at time t —
// traces are the one backend whose native value plane really is
// four-state; the Engine lowers it onto the two-state vpi surface
// where possible.
func (sb *storeBacking) bits(path string, t uint64) (val.Bits, error) {
	ts, err := sb.signal(path)
	if err != nil {
		return val.Bits{}, err
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if err := sb.syncChecked(t); err != nil {
		return val.Bits{}, err
	}
	return sb.st.StateBits(sb.state, ts), nil
}

// signal resolves a trace signal by path.
func (sb *storeBacking) signal(path string) (*vcd.StoreSignal, error) {
	ts, ok := sb.st.Signal(path)
	if !ok {
		return nil, fmt.Errorf("replay: unknown signal %q", path)
	}
	return ts, nil
}

// syncChecked syncs the state to t for a read. Callers hold mu.
func (sb *storeBacking) syncChecked(t uint64) error {
	sb.sync(t)
	// A corrupt or unreadable block stops the walk mid-stream; the
	// state array is then only synced up to the damage, so surface the
	// store failure rather than a silently stale value.
	return sb.st.Err()
}

// sync moves the replay state to time t, marking tracked signals on
// the way forward. Callers hold mu.
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
	// O(t / interval). A sync that stays inside its interval — every
	// forward edge but one per interval — goes straight to the final
	// apply.
	for sb.stateTime < t {
		next := (sb.stateTime/sb.interval + 1) * sb.interval
		if next > t {
			break
		}
		nt, ok := sb.st.NextChangeTime(sb.cur)
		if !ok || nt > t {
			// No records in (stateTime, t]: values at t are identical.
			sb.stateTime = t
			return
		}
		if nt > next {
			// Jump the gap: land on the last boundary at or before the
			// next record so the upcoming interval gets its snapshot.
			next = (nt / sb.interval) * sb.interval
		}
		sb.cur = sb.st.ApplyUpTo(sb.cur, next, sb.state, sb.marks())
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
		sb.cur = sb.st.ApplyUpTo(sb.cur, t, sb.state, sb.marks())
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
