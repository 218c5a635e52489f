package replay

import (
	"sort"

	"repro/internal/eval"
	"repro/internal/rtl"
	"repro/internal/sim"
)

// truthTable is the reference replay is checked against: every
// (time, value) change the simulator reported through sim.OnChange
// while the design ran, per signal. It shares no code with the VCD
// writer, the scanner, the block store or the checkpoint machinery.
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

// names returns every signal the simulator reported, sorted.
func (tt *truthTable) names() []string {
	out := make([]string, 0, len(tt.changes))
	for n := range tt.changes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
