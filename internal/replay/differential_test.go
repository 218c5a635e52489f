package replay

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/vcd"
)

// storeEngine parses the raw VCD into a block store and wraps it in a
// checkpointed engine with deliberately tiny blocks and intervals so
// short test traces still cross many boundaries.
func storeEngine(t testing.TB, data []byte, interval uint64) *Engine {
	t.Helper()
	st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(st, WithCheckpointInterval(interval))
}

// TestStoreEngineDifferential is the reverse-SetTime correctness
// contract: across random time jumps (forward and backward), the
// checkpointed store engine must return the values the simulator
// reported for every signal — with none, some, and all signals
// tracked for change reporting, so sweeps run with and without marks.
func TestStoreEngineDifferential(t *testing.T) {
	data, truth := makeRecording(t)
	eng := storeEngine(t, data, 3)
	randomJumps(t, eng, truth, 42)
}

// randomJumps seeks eng to 200 random times and compares every
// signal against the truth table, tracking half the signals from jump
// 66 and all of them from jump 133.
func randomJumps(t *testing.T, eng *Engine, truth *truthTable, seed int64) {
	t.Helper()
	names := truth.names()
	rng := rand.New(rand.NewSource(seed))
	max := eng.MaxTime()
	if max != truth.maxTime {
		t.Fatalf("MaxTime: engine %d, simulation %d", max, truth.maxTime)
	}
	for jump := 0; jump < 200; jump++ {
		tm := uint64(rng.Int63n(int64(max + 1)))
		if err := eng.SetTime(tm); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			got, err := eng.GetValue(name)
			if err != nil {
				t.Fatal(err)
			}
			if want := truth.valueAt(name, tm); got.Bits != want {
				t.Fatalf("jump %d: %s@%d = %d, want %d", jump, name, tm, got.Bits, want)
			}
		}
		switch jump {
		case 66:
			// Register part of the signal set mid-run; sweeps that also
			// mark changes must leave the values alone.
			eng.TrackChanges(names[:len(names)/2])
		case 133:
			eng.TrackChanges(names)
		}
	}
	if eng.Checkpoints() == 0 {
		t.Fatal("no checkpoints created across 200 random jumps")
	}
}

// diskStoreEngine round-trips the trace through the on-disk store
// format (WriteStore → OpenStore) before wrapping it in a checkpointed
// engine, with a deliberately tiny block cache so LRU eviction churns
// during the test.
func diskStoreEngine(t testing.TB, data []byte, interval uint64) *Engine {
	t.Helper()
	st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := vcd.WriteStore(&buf, st); err != nil {
		t.Fatal(err)
	}
	ds, err := vcd.OpenStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()), vcd.OpenOptions{BlockCacheBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(ds, WithCheckpointInterval(interval))
}

// TestDiskStoreEngineDifferential runs the full replay contract over a
// disk-opened store: random forward/backward jumps, partial and full
// change tracking, and checkpointed reverse seeks must all return the
// values the simulator reported — proving the replay and checkpoint
// machinery runs unchanged over the on-disk format.
func TestDiskStoreEngineDifferential(t *testing.T) {
	data, truth := makeRecording(t)
	eng := diskStoreEngine(t, data, 3)
	randomJumps(t, eng, truth, 7)
}

// TestStoreEngineStepsMatchSeed runs the store engine through a
// forward/backward step sequence and checks, at every point, the
// step's verdict, the callback time and the value against the
// simulation's truth table.
func TestStoreEngineStepsMatchSeed(t *testing.T) {
	data, truth := makeRecording(t)
	eng := storeEngine(t, data, 4)
	var engTimes, wantTimes []uint64
	eng.OnClockEdge(func(tm uint64) { engTimes = append(engTimes, tm) })
	for _, fwd := range []bool{true, true, true, true, true, false, false, true, false, true} {
		want := eng.Time() + 1
		ok := eng.StepForward
		if !fwd {
			want = eng.Time() - 1
			ok = eng.StepBackward
		}
		if !ok() {
			t.Fatalf("step(fwd=%v) from %d refused", fwd, eng.Time())
		}
		wantTimes = append(wantTimes, want)
		v, err := eng.GetValue("Counter.count")
		if err != nil || v.Bits != truth.valueAt("Counter.count", want) {
			t.Fatalf("count@%d = %v (%v), want %d", want, v, err, truth.valueAt("Counter.count", want))
		}
	}
	if !slices.Equal(engTimes, wantTimes) {
		t.Fatalf("callback times %v, want %v", engTimes, wantTimes)
	}
}

// TestStoreEngineBatchZeroAlloc pins the BatchReaderInto contract on
// the store backend: the per-cycle batched read is a lookup in the
// synced state array and allocates nothing.
func TestStoreEngineBatchZeroAlloc(t *testing.T) {
	eng := storeEngine(t, makeVCD(t), 4)
	paths := []string{"Counter.count", "Counter.out", "Counter.en"}
	dst := make([]eval.Value, len(paths))
	eng.SetTime(5)
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.GetValuesInto(paths, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("GetValuesInto allocated %.1f per call, want 0", allocs)
	}
}

// TestStoreEngineInitialValues pins time-zero semantics: real
// simulator output dumps nonzero initial values at #0 ($dumpvars), and
// the store engine must return them — at first read, and again after
// seeking away and back. The repo's own Recorder happens to dump zeros
// at #0, which is why the random differential test alone cannot catch
// this.
func TestStoreEngineInitialValues(t *testing.T) {
	const trace = `$scope module Top $end
$var wire 1 ! rst $end
$var wire 8 " v $end
$upscope $end
$enddefinitions $end
#0
1!
b101 "
#2
0!
b110 "
#4
b111 "
`
	want := map[string][]uint64{ // value at t = 0..4
		"Top.rst": {1, 1, 0, 0, 0},
		"Top.v":   {5, 5, 6, 6, 7},
	}
	eng := storeEngine(t, []byte(trace), 2)
	check := func(when string) {
		for tm := range uint64(5) {
			eng.SetTime(tm)
			for name, vals := range want {
				got, err := eng.GetValue(name)
				if err != nil {
					t.Fatal(err)
				}
				if got.Bits != vals[tm] {
					t.Fatalf("%s: %s@%d = %d, want %d", when, name, tm, got.Bits, vals[tm])
				}
			}
		}
	}
	check("first pass")
	// Specifically: rst=1, v=5 at t=0 (the reported bug returned 0s).
	eng.SetTime(0)
	if v, _ := eng.GetValue("Top.rst"); v.Bits != 1 {
		t.Fatalf("rst@0 = %d, want 1", v.Bits)
	}
	if v, _ := eng.GetValue("Top.v"); v.Bits != 5 {
		t.Fatalf("v@0 = %d, want 5", v.Bits)
	}
	check("after seeks")
}

// TestStoreEngineSparseGapSync pins sync cost on sparse traces: real
// dumps count timescale units, so a small explicit checkpoint interval
// against a #1e9-long record-free gap must not loop (or snapshot) once
// per boundary. Sweep work is O(records + snapshots actually taken);
// this test hangs for ~a minute if a per-boundary regression returns.
func TestStoreEngineSparseGapSync(t *testing.T) {
	const trace = `$scope module Top $end
$var wire 1 ! a $end
$upscope $end
$enddefinitions $end
#0
1!
#1000000000
0!
`
	st, err := vcd.ParseStore(bytes.NewReader([]byte(trace)), vcd.StoreOptions{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewStore(st, WithCheckpointInterval(64))
	read := func(tm, want uint64) {
		if err := eng.SetTime(tm); err != nil {
			t.Fatal(err)
		}
		v, err := eng.GetValue("Top.a")
		if err != nil {
			t.Fatal(err)
		}
		if v.Bits != want {
			t.Fatalf("a@%d = %d, want %d", tm, v.Bits, want)
		}
	}
	read(eng.MaxTime(), 0)   // forward across the gap
	read(500000000, 1)       // backward into the gap
	read(eng.MaxTime()-1, 1) // forward again, just before the change
	read(0, 1)               // all the way back
	read(eng.MaxTime(), 0)   // and forward once more
	if n := eng.Checkpoints(); n > 4 {
		t.Fatalf("checkpoints = %d, want a handful (one per interval containing records, one per gap landing)", n)
	}
}

// TestStoreCheckpointOrderInvariant pins the restore lookup's sorted
// invariant: a partial sweep that consumes a record without crossing
// its checkpoint boundary, then a gap-jumping long sweep, then a
// rewind-and-resweep creates an earlier checkpoint AFTER later ones.
// cpTimes must stay sorted so a backward seek still binary-searches to
// the nearest checkpoint instead of silently replaying from t=0.
func TestStoreCheckpointOrderInvariant(t *testing.T) {
	const trace = `$scope module Top $end
$var wire 8 ! v $end
$upscope $end
$enddefinitions $end
#5
b1 !
#95
b10 !
#200
b11 !
`
	st, err := vcd.ParseStore(bytes.NewReader([]byte(trace)), vcd.StoreOptions{BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	sb := newStoreBacking(st, WithCheckpointInterval(10))
	// sync(7) consumes the t=5 record without snapshotting boundary 10;
	// sync(200) gap-jumps past 10 and snapshots 90/100/200; the rewind
	// and resweep to 25 finally creates checkpoint 10 — out of creation
	// order.
	for _, tm := range []uint64{7, 200, 3, 25} {
		sb.sync(tm)
	}
	for i := 1; i < len(sb.cpTimes); i++ {
		if sb.cpTimes[i-1] >= sb.cpTimes[i] {
			t.Fatalf("cpTimes not sorted: %v", sb.cpTimes)
		}
	}
	// A backward seek to 60 must land on checkpoint 10, not reset to
	// time zero (which would silently degrade reverse seeks to O(t)).
	sb.sync(200)
	sb.restore(60)
	if sb.stateTime != 10 {
		t.Fatalf("restore(60) landed at %d, want checkpoint 10 (cpTimes %v)", sb.stateTime, sb.cpTimes)
	}
	if got, _ := sb.bits("Top.v", 60); got.V0 != 1 {
		t.Fatalf("v@60 = %d, want 1", got.V0)
	}
}

// TestStoreEngineConcurrentReads models the hgdb-replay deployment
// shape: server connection goroutines issue raw get_value reads at
// scattered times while the simulation goroutine re-registers its
// dependency union and polls for changes — and every poll syncs the
// same shared state the readers sync. Values must match the
// simulation's truth table throughout; run with -race to catch
// reader/poll races.
func TestStoreEngineConcurrentReads(t *testing.T) {
	data, truth := makeRecording(t)
	st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	sb := newStoreBacking(st, WithCheckpointInterval(2))
	names := truth.names()
	max := st.MaxTime
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				tm := uint64((i*7 + g*3) % int(max+1))
				name := names[(i+g)%len(names)]
				got, err := sb.bits(name, tm)
				if err != nil {
					t.Error(err)
					return
				}
				if want := truth.valueAt(name, tm); got.V0 != want {
					t.Errorf("%s@%d = %d, want %d", name, tm, got.V0, want)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst := make([]bool, len(names))
		for i := 0; i < 300; i++ {
			if i%50 == 0 {
				sb.trackChanges(names[:1+i/50%len(names)])
			}
			sb.changedInto(uint64(i)%(max+1), dst)
		}
	}()
	wg.Wait()
}

// TestStoreEngineReverseUsesCheckpoints checks the mechanism (not just
// the answers): after a forward sweep, a backward seek restores from a
// snapshot rather than replaying from zero — observable as checkpoint
// population plus correct state reads straight after the restore.
func TestStoreEngineReverseUsesCheckpoints(t *testing.T) {
	data, truth := makeRecording(t)
	eng := storeEngine(t, data, 2)
	// Forward sweep with a read each cycle populates every boundary
	// snapshot.
	for eng.StepForward() {
		if _, err := eng.GetValue("Counter.count"); err != nil {
			t.Fatal(err)
		}
	}
	want := int(eng.MaxTime() / 2)
	if got := eng.Checkpoints(); got != want {
		t.Fatalf("checkpoints after full sweep = %d, want %d", got, want)
	}
	for tm := int64(eng.MaxTime()); tm >= 0; tm-- {
		eng.SetTime(uint64(tm))
		got, err := eng.GetValue("Counter.count")
		if err != nil {
			t.Fatal(err)
		}
		if want := truth.valueAt("Counter.count", uint64(tm)); got.Bits != want {
			t.Fatalf("reverse read@%d = %d, want %d", tm, got.Bits, want)
		}
	}
}
