package vcd

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/sim"
)

// designNetlist elaborates a two-level design: a top counter plus two
// child accumulators. Multiple scopes and widths exercise hierarchy
// reconstruction and vector changes.
func designNetlist(t testing.TB) *rtl.Netlist {
	t.Helper()
	c := generator.NewCircuit("Top")
	leaf := c.NewModule("Leaf")
	d := leaf.Input("d", ir.UIntType(8))
	q := leaf.Output("q", ir.UIntType(8))
	acc := leaf.RegInit("acc", ir.UIntType(8), leaf.Lit(0, 8))
	leaf.When(d.Bit(0), func() {
		acc.Set(acc.AddMod(d))
	})
	q.Set(acc)
	top := c.NewModule("Top")
	en := top.Input("en", ir.UIntType(1))
	out := top.Output("out", ir.UIntType(16))
	count := top.RegInit("count", ir.UIntType(16), top.Lit(0, 16))
	top.When(en, func() {
		count.Set(count.AddMod(top.Lit(1, 16)))
	})
	u0 := top.Instance("u0", leaf)
	u1 := top.Instance("u1", leaf)
	u0.IO("d").Set(count.Bits(7, 0))
	u1.IO("d").Set(count.Bits(8, 1))
	out.Set(count.AddMod(count.AddMod(u0.IO("q").Cat(u1.IO("q")))))
	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// recordDesign simulates the design for n cycles and returns the VCD
// text.
func recordDesign(t testing.TB, n int) []byte {
	t.Helper()
	data, _ := simulateDesign(t, n)
	return data
}

// simulateDesign simulates the design for n cycles and returns the VCD
// text together with the simulator's own truth table of the same run.
func simulateDesign(t testing.TB, n int) ([]byte, *truthTable) {
	t.Helper()
	s := sim.New(designNetlist(t))
	var buf bytes.Buffer
	rec := NewRecorder(s, &buf)
	truth := recordTruth(s)
	if err := s.Reset("Top.reset", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("Top.en", 1); err != nil {
		t.Fatal(err)
	}
	s.Run(n)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), truth
}

// TestStoreMatchesSimulation is the parser-level differential: every
// signal's value at every time, and its change count, must match the
// simulator's own change stream — queried lazily (block decode), again
// after partial and full materialization.
func TestStoreMatchesSimulation(t *testing.T) {
	data, truth := simulateDesign(t, 300)
	// Block size 16 forces many blocks; 300 cycles crosses plenty of
	// boundaries.
	st, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxTime != truth.maxTime {
		t.Fatalf("MaxTime: store %d, simulation %d", st.MaxTime, truth.maxTime)
	}
	names := truth.names()
	if got := st.SignalNames(); !slices.Equal(got, names) {
		t.Fatalf("signals: store %v, simulation %v", got, names)
	}
	check := func(phase string) {
		for _, name := range names {
			ss, _ := st.Signal(name)
			if got, want := ss.NumChanges(), truth.numChanges(name); got != want {
				t.Fatalf("%s: %s changes: store %d, simulation %d", phase, name, got, want)
			}
			for tm := uint64(0); tm <= truth.maxTime; tm++ {
				if got, want := ss.ValueAt(tm), truth.valueAt(name, tm); got != want {
					t.Fatalf("%s: %s@%d = %d, want %d", phase, name, tm, got, want)
				}
			}
		}
	}
	check("lazy")
	// Materialize a subset, then everything; answers must not change.
	st.Materialize(names[0], names[len(names)/2])
	if s, _ := st.Signal(names[0]); !s.Materialized() {
		t.Fatal("signal not materialized")
	}
	check("partial")
	st.Materialize(names...)
	check("materialized")
}

// TestStoreApplyUpTo checks cursor-resumed state sweeps against the
// simulation's truth table: replaying in arbitrary forward increments
// must land on the exact signal values at every stop.
func TestStoreApplyUpTo(t *testing.T) {
	data, truth := simulateDesign(t, 200)
	st, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	state := st.NewState()
	var cur Cursor
	// Irregular hop sizes: within-block, block-exact, multi-block.
	var at uint64
	for _, hop := range []uint64{1, 2, 5, 8, 3, 16, 1, 40, 7, 64, 13} {
		at += hop
		if at > st.MaxTime {
			at = st.MaxTime
		}
		cur = st.ApplyUpTo(cur, at, state)
		for _, name := range truth.names() {
			ss, _ := st.Signal(name)
			if got, want := st.StateBits(state, ss).V0, truth.valueAt(name, at); got != want {
				t.Fatalf("state[%s]@%d = %d, want %d", name, at, got, want)
			}
		}
	}
}

// TestStoreHierarchy checks the scope tree matches the simulated
// netlist's.
func TestStoreHierarchy(t *testing.T) {
	st, err := ParseStore(bytes.NewReader(recordDesign(t, 10)), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := flattenHier(designNetlist(t).Hierarchy), flattenHier(st.Hierarchy); !slices.Equal(a, b) {
		t.Fatalf("hierarchy: netlist %q, store %q", a, b)
	}
	if st.NumBlocks() == 0 || st.NumChanges() == 0 || st.IndexBytes() == 0 {
		t.Fatalf("store stats empty: blocks=%d changes=%d bytes=%d",
			st.NumBlocks(), st.NumChanges(), st.IndexBytes())
	}
}

// TestCursorWindowBoundaries pins the cursor conventions of the shared
// walk (recordWalk) at exact block-window edges — the times where an
// off-by-one between "partially covered" and "exhausted" block
// handling would corrupt resumed sweeps. For every boundary-adjacent
// time: SeekCursor must equal the cursor a from-zero ScanChanges walk
// produces, resumed ApplyUpTo sweeps must match fresh ones, and
// NextChangeTime must report the first record past the cursor.
func TestCursorWindowBoundaries(t *testing.T) {
	data, truth := simulateDesign(t, 120)
	const bs = 16
	st, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	// Change times, for NextChangeTime's expected answers.
	changeTimes := truth.changeTimes()
	firstAfter := func(tm uint64) (uint64, bool) {
		i := sort.Search(len(changeTimes), func(i int) bool { return changeTimes[i] > tm })
		if i == len(changeTimes) {
			return 0, false
		}
		return changeTimes[i], true
	}

	var times []uint64
	for win := uint64(0); win*bs <= st.MaxTime+bs; win++ {
		for _, tm := range []uint64{win * bs, win*bs + bs - 1} {
			times = append(times, tm)
			if tm > 0 {
				times = append(times, tm-1)
			}
		}
	}
	state := st.NewState()
	fresh := st.NewState()
	var cur Cursor
	var prev uint64
	for _, tm := range times {
		if tm < prev {
			continue
		}
		prev = tm
		// Resumed sweep vs fresh sweep vs simulation truth.
		cur = st.ApplyUpTo(cur, tm, state)
		fresh.Zero()
		freshCur := st.ApplyUpTo(Cursor{}, tm, fresh)
		for _, name := range truth.names() {
			ss, _ := st.Signal(name)
			want := truth.valueAt(name, tm)
			if st.StateBits(state, ss).V0 != want || st.StateBits(fresh, ss).V0 != want {
				t.Fatalf("sweep @%d %s: resumed %d, fresh %d, want %d",
					tm, name, st.StateBits(state, ss).V0, st.StateBits(fresh, ss).V0, want)
			}
		}
		// SeekCursor must land exactly where the walks landed.
		if sk := st.SeekCursor(tm); sk != freshCur {
			t.Fatalf("SeekCursor(%d) = %+v, walk cursor %+v", tm, sk, freshCur)
		}
		if cur != freshCur {
			t.Fatalf("resumed cursor @%d = %+v, fresh %+v", tm, cur, freshCur)
		}
		// NextChangeTime from the advanced cursor: first change > tm.
		nt, ok := st.NextChangeTime(cur)
		wantNT, wantOK := firstAfter(tm)
		if ok != wantOK || (ok && nt != wantNT) {
			t.Fatalf("NextChangeTime after %d = %d,%v, want %d,%v", tm, nt, ok, wantNT, wantOK)
		}
	}
}

// TestZeroChangeSignal pins behavior for declared-but-never-changed
// signals: every query answers zero, sweeps leave their slot zero, and
// materialization marks them done with an empty timeline.
func TestZeroChangeSignal(t *testing.T) {
	src := `$scope module top $end
$var wire 8 ! quiet $end
$var wire 1 " clk $end
$upscope $end
$enddefinitions $end
#0
1"
#100
0"
`
	st, err := ParseStore(bytes.NewReader([]byte(src)), StoreOptions{BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts, ok := st.Signal("top.quiet")
	if !ok {
		t.Fatal("zero-change signal not declared")
	}
	if ts.NumChanges() != 0 {
		t.Fatalf("NumChanges = %d", ts.NumChanges())
	}
	for _, tm := range []uint64{0, 1, 50, 100} {
		if ts.ValueAt(tm) != 0 {
			t.Fatalf("ValueAt(%d) != 0", tm)
		}
	}
	state := st.NewState()
	st.ApplyUpTo(Cursor{}, st.MaxTime, state)
	if b := st.StateBits(state, ts); b.V0 != 0 || b.HasX() {
		t.Fatalf("sweep wrote %s into zero-change slot", b.String())
	}
	st.Materialize("top.quiet")
	if !ts.Materialized() {
		t.Fatal("zero-change signal not materialized")
	}
	if ts.ValueAt(50) != 0 {
		t.Fatal("materialized zero-change signal nonzero")
	}
}

// TestTimelineLRUBudget pins the materialized-timeline byte bound:
// when successive dependency unions push the resident set over the
// budget, the least recently advised timelines drop back to
// block-index form — and answers do not change.
func TestTimelineLRUBudget(t *testing.T) {
	data, truth := simulateDesign(t, 300)
	st, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	names := st.SignalNames()
	if len(names) < 4 {
		t.Fatalf("need >= 4 signals, have %d", len(names))
	}
	// Budget that fits roughly half the signals' timelines.
	total := 0
	for _, n := range names {
		ss, _ := st.Signal(n)
		total += 16 * ss.NumChanges()
	}
	st.SetTimelineBudget(total / 2)

	half := len(names) / 2
	st.Materialize(names[:half]...)
	st.Materialize(names[half:]...)
	if got := st.TimelineBytes(); got > total/2 {
		t.Fatalf("TimelineBytes = %d, budget %d", got, total/2)
	}
	// The most recent union survives preferentially: at least one of the
	// second batch must be resident, and evicted signals still answer.
	resident := 0
	for _, n := range names[half:] {
		ss, _ := st.Signal(n)
		if ss.Materialized() {
			resident++
		}
	}
	if resident == 0 {
		t.Fatal("entire most-recent union evicted")
	}
	for _, n := range names {
		ss, _ := st.Signal(n)
		for tm := uint64(0); tm <= st.MaxTime; tm += 7 {
			if got, want := ss.ValueAt(tm), truth.valueAt(n, tm); got != want {
				t.Fatalf("post-eviction %s@%d = %d, want %d", n, tm, got, want)
			}
		}
	}
	// Re-advising an evicted union re-materializes it.
	st.SetTimelineBudget(0)
	st.Materialize(names...)
	for _, n := range names {
		ss, _ := st.Signal(n)
		if !ss.Materialized() {
			t.Fatalf("%s not rematerialized under default budget", n)
		}
	}
}

// TestStoreSparseTimestamps pins the sparse-block property: real
// simulator dumps count timescale units, not cycles, so timestamps can
// be enormous (#1e12 for a 1 s run at 1 ps) with huge empty gaps.
// Block memory must scale with changes, not with MaxTime/blockSize,
// and queries inside and across the gaps must agree with the literal
// change table.
func TestStoreSparseTimestamps(t *testing.T) {
	const trace = `$scope module Top $end
$var wire 1 ! a $end
$var wire 8 " v $end
$upscope $end
$enddefinitions $end
#0
1!
b101 "
#70
0!
#1000000000000
1!
b11 "
#1000000000100
0!
`
	st, err := ParseStore(bytes.NewReader([]byte(trace)), StoreOptions{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Windows touched: 0, 1 (t=70), 15625000000 (t=1e12), and t=1e12+100
	// lands in the next window — 4 non-empty blocks, not ~1.5e10.
	if got := st.NumBlocks(); got != 4 {
		t.Fatalf("NumBlocks = %d, want 4 (sparse)", got)
	}
	if st.IndexBytes() > 1<<12 {
		t.Fatalf("IndexBytes = %d, want tiny for 6 changes", st.IndexBytes())
	}
	truth := &truthTable{changes: map[string][]truthChange{
		"Top.a": {{0, 1}, {70, 0}, {1000000000000, 1}, {1000000000100, 0}},
		"Top.v": {{0, 5}, {1000000000000, 3}},
	}}
	times := []uint64{0, 1, 69, 70, 71, 1000, 999999999999, 1000000000000,
		1000000000050, 1000000000100, st.MaxTime}
	check := func(phase string) {
		for _, name := range []string{"Top.a", "Top.v"} {
			ss, _ := st.Signal(name)
			for _, tm := range times {
				if got, want := ss.ValueAt(tm), truth.valueAt(name, tm); got != want {
					t.Fatalf("%s: %s@%d = %d, want %d", phase, name, tm, got, want)
				}
			}
		}
	}
	check("lazy")
	// State sweeps must step across the gap without visiting it.
	state := st.NewState()
	var cur Cursor
	for _, tm := range times {
		cur = st.ApplyUpTo(cur, tm, state)
		for _, name := range []string{"Top.a", "Top.v"} {
			ss, _ := st.Signal(name)
			if got, want := st.StateBits(state, ss).V0, truth.valueAt(name, tm); got != want {
				t.Fatalf("sweep: %s@%d = %d, want %d", name, tm, got, want)
			}
		}
	}
	st.Materialize("Top.a", "Top.v")
	check("materialized")
}
