package vcd

import (
	"sort"

	"repro/internal/eval"
	"repro/internal/rtl"
	"repro/internal/sim"
)

// truthTable is the reference the block store is checked against:
// every (time, value) change the simulator reported through
// sim.OnChange while the design ran, per signal. It shares no code
// with the VCD writer, the scanner or the block encoding, so a bug in
// any of them shows up as a disagreement.
type truthTable struct {
	changes map[string][]truthChange
	maxTime uint64 // time of the last reported change
}

type truthChange struct{ t, v uint64 }

// recordTruth starts a truth table on s; it fills as s steps.
func recordTruth(s *sim.Simulator) *truthTable {
	tt := &truthTable{changes: map[string][]truthChange{}}
	s.OnChange(func(sig *rtl.Signal, v eval.Value) {
		tt.changes[sig.Name] = append(tt.changes[sig.Name], truthChange{s.Time(), v.Bits})
		tt.maxTime = max(tt.maxTime, s.Time())
	})
	return tt
}

// valueAt is the last change at or before t (zero before the first).
func (tt *truthTable) valueAt(name string, t uint64) uint64 {
	cs := tt.changes[name]
	i := sort.Search(len(cs), func(i int) bool { return cs[i].t > t })
	if i == 0 {
		return 0
	}
	return cs[i-1].v
}

// numChanges is how many changes the simulator reported for name.
func (tt *truthTable) numChanges(name string) int { return len(tt.changes[name]) }

// names returns every signal the simulator reported, sorted.
func (tt *truthTable) names() []string {
	out := make([]string, 0, len(tt.changes))
	for n := range tt.changes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// changeTimes returns every distinct time with at least one change,
// ascending.
func (tt *truthTable) changeTimes() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, cs := range tt.changes {
		for _, c := range cs {
			if !seen[c.t] {
				seen[c.t] = true
				out = append(out, c.t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
