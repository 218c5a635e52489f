package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/symtab"
	"repro/internal/val"
	"repro/internal/vpi"
)

// frameSlot is one frame variable's fixed shape: the source-level
// name it is shown under and the full simulator path its value is
// read from.
type frameSlot struct {
	name, rtl string
}

// framePlan lists a frame's variables in display order as indices
// into Runtime.frameSlots, which holds each distinct slot once: scopes
// overlap heavily (the one-core SoC's 111 breakpoints bind 4120 scope
// variables through 98 distinct slots), so a plan costs 4 bytes per
// variable.
type framePlan []int32

// instancePlan is one instance's generator-variable frame plan, and
// the name → simulator path index EvaluateBits and condition name
// resolution use (first binding per name, as
// symtab.ResolveInstanceVar).
type instancePlan struct {
	plan   framePlan
	byName map[string]string
}

// buildInstancePlans builds every instance's generator plan. New calls
// it once; the plans are never written afterwards, so query goroutines
// may read them without a lock. The table is read-only after load and
// the remap is fixed at New, so a plan can never go stale.
func (rt *Runtime) buildInstancePlans() map[string]*instancePlan {
	plans := map[string]*instancePlan{}
	for _, inst := range rt.table.Instances() {
		id, ok := rt.table.InstanceIDByName(inst)
		if !ok {
			continue
		}
		binds := rt.table.GeneratorVars(id)
		p := &instancePlan{plan: rt.planSlots(inst, binds), byName: make(map[string]string, len(binds))}
		for _, i := range p.plan {
			s := rt.frameSlots[i]
			if _, dup := p.byName[s.name]; !dup {
				p.byName[s.name] = s.rtl
			}
		}
		rt.sortPlan(p.plan)
		plans[inst] = p
	}
	return plans
}

// generatorPath resolves a generator variable of an instance to its
// simulator path through the instance's plan.
func (rt *Runtime) generatorPath(instance, name string) (string, bool) {
	p := rt.instPlans[instance]
	if p == nil {
		return "", false
	}
	full, ok := p.byName[name]
	return full, ok
}

// localPlan returns the scope-variable plan of a breakpoint, building
// it on the breakpoint's first stop. Simulation goroutine only.
func (rt *Runtime) localPlan(bp *symtab.Breakpoint) framePlan {
	if plan, ok := rt.localPlans[bp.ID]; ok {
		return plan
	}
	plan := rt.planSlots(bp.InstanceName, rt.table.ScopeVars(bp.ID))
	rt.sortPlan(plan)
	rt.localPlans[bp.ID] = plan
	return plan
}

// planSlots maps an instance's variable bindings to slots, in binding
// order; nil when there are none, so an empty frame list stays nil on
// the wire.
func (rt *Runtime) planSlots(instance string, binds []symtab.VarBinding) framePlan {
	if len(binds) == 0 {
		return nil
	}
	plan := make(framePlan, len(binds))
	for i, b := range binds {
		s := frameSlot{name: b.Name, rtl: rt.remap.ToSim(instance + "." + b.RTL)}
		idx, ok := rt.frameSlotIdx[s]
		if !ok {
			idx = int32(len(rt.frameSlots))
			rt.frameSlots = append(rt.frameSlots, s)
			rt.frameSlotIdx[s] = idx
		}
		plan[i] = idx
	}
	return plan
}

// sortPlan puts a plan in display order (natural name order).
func (rt *Runtime) sortPlan(plan framePlan) {
	sort.Slice(plan, func(i, j int) bool { return naturalLess(rt.frameSlots[plan[i]].name, rt.frameSlots[plan[j]].name) })
}

// readFrame reads every slot of a plan, in plan order.
func (rt *Runtime) readFrame(plan framePlan) []Variable {
	if len(plan) == 0 {
		return nil
	}
	vars := make([]Variable, len(plan))
	for i, idx := range plan {
		s := &rt.frameSlots[idx]
		vars[i] = rt.frameVar(s.name, s.rtl)
	}
	return vars
}

// buildEvent reconstructs the stack-frame information for every hit
// instance (§3.2 step 3: "we reconstruct the stack frame based on the
// symbol table and then send the result to the user"). The frame's
// shape comes from cached plans; only the values are read per stop.
func (rt *Runtime) buildEvent(g *group, hits []*insertedBP, time uint64, reverse, stepping bool) *StopEvent {
	ev := &StopEvent{
		Time:     time,
		File:     g.file,
		Line:     g.line,
		Col:      g.col,
		Reverse:  reverse,
		StepStop: stepping,
		Threads:  make([]Thread, len(hits)),
	}
	for i, ibp := range hits {
		th := &ev.Threads[i]
		th.BreakpointID = ibp.bp.ID
		th.Instance = ibp.bp.InstanceName
		th.Locals = rt.readFrame(rt.localPlan(&ibp.bp))
		if p := rt.instPlans[ibp.bp.InstanceName]; p != nil {
			th.Generator = rt.readFrame(p.plan)
		}
	}
	slices.SortFunc(ev.Threads, func(a, b Thread) int { return strings.Compare(a.Instance, b.Instance) })
	return ev
}

// naturalLess orders variable names with digit runs compared
// numerically, so flattened vector elements sort as v[2] < v[10]
// instead of the lexicographic v[10] < v[2] (bracketed indices come
// from aggregate lowering, see passes.flattenType). Non-digit bytes
// compare as usual; equal numeric values with different spellings
// ("07" vs "7") fall back to the raw text so the order stays total.
func naturalLess(a, b string) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if isDigit(a[i]) && isDigit(b[j]) {
			ia, jb := i, j
			for ia < len(a) && isDigit(a[ia]) {
				ia++
			}
			for jb < len(b) && isDigit(b[jb]) {
				jb++
			}
			da, db := trimZeros(a[i:ia]), trimZeros(b[j:jb])
			if len(da) != len(db) {
				return len(da) < len(db)
			}
			if da != db {
				return da < db
			}
			i, j = ia, jb
			continue
		}
		if a[i] != b[j] {
			return a[i] < b[j]
		}
		i++
		j++
	}
	if len(a)-i != len(b)-j {
		return len(a)-i < len(b)-j
	}
	return a < b
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func trimZeros(s string) string {
	for len(s) > 1 && s[0] == '0' {
		s = s[1:]
	}
	return s
}

// frameVar reads one frame variable. A failed backend read (a
// transient replay gap, an optimized-away net) does NOT drop the
// variable — that would make frame shapes flutter nondeterministically
// between stops — it emits the variable with the Unknown marker so
// clients can render a placeholder.
func (rt *Runtime) frameVar(name, full string) Variable {
	b, err := vpi.ReadBits(rt.backend, full)
	if err != nil {
		return Variable{Name: name, RTL: full, Unknown: true}
	}
	v := Variable{Name: name, RTL: full}
	v.SetBits(b)
	return v
}

// EvaluateBits computes an expression in the context of an instance
// with full four-state, arbitrary-width semantics — the path the
// protocol's evaluate request uses, so x/z and >64-bit signals render
// instead of erroring. Names bind through resolveSourceName: at a stop,
// bpID scopes them to the stopped breakpoint, so a source name reads
// exactly what the frame shows; bpID 0 (a mid-run query) resolves
// generator variables of the instance, then instance-local RTL names,
// then absolute paths.
func (rt *Runtime) EvaluateBits(bpID int64, instance, src string) (val.Bits, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return val.Bits{}, err
	}
	b, err := rt.evalBits(bind(n, nil, func(name string) (string, bool) {
		return rt.resolveSourceName(bpID, instance, name, nil)
	}))
	if err != nil {
		return val.Bits{}, fmt.Errorf("core: evaluate %q in %s: %w", src, instance, err)
	}
	return b, nil
}

// StructuredVars groups flat dotted variables into a tree for display —
// the paper's "reconstruct structured variables from a list of
// flattened RTL signals" (§4.2, dcmp.io as a PortBundle).
type StructuredVar struct {
	Name     string          `json:"name"`
	Leaf     *Variable       `json:"leaf,omitempty"`
	Children []StructuredVar `json:"children,omitempty"`
}

// Structure converts flat variables into a nested tree by splitting
// dotted names.
func Structure(vars []Variable) []StructuredVar {
	type nodeT struct {
		children map[string]*nodeT
		order    []string
		leaf     *Variable
	}
	root := &nodeT{children: map[string]*nodeT{}}
	for i := range vars {
		v := &vars[i]
		parts := splitDots(v.Name)
		cur := root
		for _, p := range parts {
			child, ok := cur.children[p]
			if !ok {
				child = &nodeT{children: map[string]*nodeT{}}
				cur.children[p] = child
				cur.order = append(cur.order, p)
			}
			cur = child
		}
		cur.leaf = v
	}
	sortNames := func(names []string) {
		sort.Slice(names, func(i, j int) bool { return naturalLess(names[i], names[j]) })
	}
	var build func(n *nodeT, name string) StructuredVar
	build = func(n *nodeT, name string) StructuredVar {
		sv := StructuredVar{Name: name, Leaf: n.leaf}
		sortNames(n.order)
		for _, childName := range n.order {
			sv.Children = append(sv.Children, build(n.children[childName], childName))
		}
		return sv
	}
	var out []StructuredVar
	sortNames(root.order)
	for _, name := range root.order {
		out = append(out, build(root.children[name], name))
	}
	return out
}

// splitDots splits a dotted path, keeping bracketed indices attached to
// their segment ("v[3].x" → ["v[3]", "x"]).
func splitDots(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}
