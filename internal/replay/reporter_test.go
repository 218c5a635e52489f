package replay

import (
	"math/rand"
	"testing"

	"repro/internal/vpi"
)

// reporterEngines builds a parsed and a disk-opened store engine over
// the shared counter trace, so every dirty-set contract below is
// checked with resident blocks and with blocks loaded through the
// on-disk cache.
func reporterEngines(t *testing.T) map[string]*Engine {
	t.Helper()
	data := makeVCD(t)
	return map[string]*Engine{
		"store": storeEngine(t, data, 3),
		"disk":  diskStoreEngine(t, data, 3),
	}
}

func TestChangeReporterForward(t *testing.T) {
	for name, e := range reporterEngines(t) {
		t.Run(name, func(t *testing.T) {
			var _ vpi.ChangeReporter = e
			// count changes every enabled cycle; en only at the poke.
			e.TrackChanges([]string{"Counter.count", "Counter.en"})
			dst := make([]bool, 2)
			e.SetTime(4)
			if ok := e.ChangedInto(dst); !ok || !dst[0] || !dst[1] {
				t.Fatalf("first poll = %v ok=%v, want all dirty", dst, ok)
			}
			// One forward cycle: count moved, en did not.
			e.SetTime(5)
			if ok := e.ChangedInto(dst); !ok {
				t.Fatal("forward poll not ok")
			}
			if !dst[0] || dst[1] {
				t.Fatalf("forward delta = %v, want [count dirty, en clean]", dst)
			}
			// Same instant again: nothing changed in the empty window.
			if ok := e.ChangedInto(dst); !ok || dst[0] || dst[1] {
				t.Fatalf("empty-window poll = %v ok=%v, want clean", dst, ok)
			}
		})
	}
}

func TestChangeReporterBackwardCannotBound(t *testing.T) {
	for name, e := range reporterEngines(t) {
		t.Run(name, func(t *testing.T) {
			e.TrackChanges([]string{"Counter.count"})
			dst := make([]bool, 1)
			e.SetTime(6)
			e.ChangedInto(dst)
			// Backward seek. The store cursor cannot scan backwards, so
			// it answers "cannot bound" — but whatever the verdict, a
			// claimed bound must be correct.
			e.SetTime(3)
			ok := e.ChangedInto(dst)
			if ok && !dst[0] {
				t.Fatal("backward move claimed count clean (value differs at t=3 vs t=6)")
			}
			// The poll after re-anchoring must track forward deltas
			// correctly again.
			e.SetTime(4)
			if ok := e.ChangedInto(dst); !ok || !dst[0] {
				t.Fatalf("post-rewind forward delta lost: dirty=%v ok=%v", dst[0], ok)
			}
		})
	}
}

func TestChangeReporterIdleStretch(t *testing.T) {
	for name, e := range reporterEngines(t) {
		t.Run(name, func(t *testing.T) {
			// en is constant after the initial poke: polls across later
			// windows must report it clean.
			e.TrackChanges([]string{"Counter.en"})
			dst := make([]bool, 1)
			e.SetTime(3)
			e.ChangedInto(dst)
			for tm := uint64(4); tm <= 9; tm++ {
				e.SetTime(tm)
				if ok := e.ChangedInto(dst); !ok || dst[0] {
					t.Fatalf("t=%d: idle signal reported dirty=%v ok=%v", tm, dst[0], ok)
				}
			}
		})
	}
}

func TestChangeReporterUnknownPathAndUnregistered(t *testing.T) {
	for name, e := range reporterEngines(t) {
		t.Run(name, func(t *testing.T) {
			dst := make([]bool, 2)
			if ok := e.ChangedInto(dst); ok {
				t.Fatal("unregistered reporter claimed a bound")
			}
			e.TrackChanges([]string{"Counter.ghost", "Counter.en"})
			e.SetTime(3)
			e.ChangedInto(dst)
			e.SetTime(4)
			if ok := e.ChangedInto(dst); !ok || !dst[0] {
				t.Fatalf("unknown path not conservatively dirty: %v ok=%v", dst, ok)
			}
		})
	}
}

// TestChangeReporterMatchesValueDiff is the store-vs-truth property:
// stepping the trace forward cycle by cycle, a signal reported clean
// must have an unchanged value in the simulation's truth table —
// checked for every signal in the trace at once.
func TestChangeReporterMatchesValueDiff(t *testing.T) {
	_, truth := makeRecording(t)
	names := truth.names()
	for engName, e := range reporterEngines(t) {
		t.Run(engName, func(t *testing.T) {
			e.TrackChanges(names)
			dst := make([]bool, len(names))
			e.ChangedInto(dst) // consume registration report
			prev := make([]uint64, len(names))
			for i, n := range names {
				prev[i] = truth.valueAt(n, e.Time())
			}
			for e.Time() < e.MaxTime() {
				e.SetTime(e.Time() + 1)
				if ok := e.ChangedInto(dst); !ok {
					t.Fatalf("t=%d: forward poll not ok", e.Time())
				}
				for i, n := range names {
					cur := truth.valueAt(n, e.Time())
					if cur != prev[i] && !dst[i] {
						t.Fatalf("t=%d: %s changed %d->%d but reported clean",
							e.Time(), n, prev[i], cur)
					}
					prev[i] = cur
				}
			}
		})
	}
}

// TestChangeReporterInterleavedReaders is the reporter differential
// with other readers moving the shared replay state between polls, as
// the debug server's raw get_value reads and a stopped frame's reads
// after a reverse seek do. Each forward poll follows a random mix of
// reads at the current time and reverse SetTime + read + return; no
// tracked signal whose truth-table value changed since the previous
// poll may be reported clean.
func TestChangeReporterInterleavedReaders(t *testing.T) {
	_, truth := makeRecording(t)
	names := truth.names()
	for engName, e := range reporterEngines(t) {
		t.Run(engName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			read := func(tm uint64) {
				name := names[rng.Intn(len(names))]
				got, err := e.GetValue(name)
				if err != nil {
					t.Fatal(err)
				}
				if want := truth.valueAt(name, tm); got.Bits != want {
					t.Fatalf("%s@%d = %d, want %d", name, tm, got.Bits, want)
				}
			}
			dst := make([]bool, len(names))
			for round := 0; round < 50; round++ {
				e.SetTime(0)
				e.TrackChanges(names)
				e.ChangedInto(dst) // consume registration report
				for e.Time() < e.MaxTime() {
					from := e.Time()
					to := min(from+1+uint64(rng.Intn(3)), e.MaxTime())
					e.SetTime(to)
					for k := rng.Intn(4); k > 0; k-- {
						if rng.Intn(2) == 0 {
							read(to)
							continue
						}
						// Half the seeks land inside the poll window, where
						// a restore must not cost marks the window needs.
						lo := uint64(0)
						if rng.Intn(2) == 0 {
							lo = from
						}
						back := lo + uint64(rng.Int63n(int64(to-lo+1)))
						e.SetTime(back)
						read(back)
						e.SetTime(to)
					}
					if ok := e.ChangedInto(dst); !ok {
						t.Fatalf("round %d: forward poll %d->%d not ok", round, from, to)
					}
					for i, n := range names {
						if prev, cur := truth.valueAt(n, from), truth.valueAt(n, to); prev != cur && !dst[i] {
							t.Fatalf("round %d: %s changed %d->%d over (%d, %d] but reported clean",
								round, n, prev, cur, from, to)
						}
					}
				}
			}
		})
	}
}
