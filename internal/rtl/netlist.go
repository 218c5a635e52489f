// Package rtl turns Low-form IR into a flattened, simulatable netlist.
// The hierarchy is inlined (instance signals get dot-separated path
// prefixes, e.g. Top.cpu0.alu._T_3) while an instance tree is kept as
// metadata so the VPI-style interface can answer hierarchy queries —
// the paper's design point 3.4: flat simulation, hierarchical names.
package rtl

import (
	"fmt"
	"sort"
)

// SignalKind classifies netlist signals.
type SignalKind int

const (
	// KindInput is a top-level input, settable by the testbench.
	KindInput SignalKind = iota
	// KindNode is a combinationally assigned signal.
	KindNode
	// KindReg is a clocked register.
	KindReg
)

func (k SignalKind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindNode:
		return "node"
	case KindReg:
		return "reg"
	}
	return "?"
}

// Signal is one flattened net.
type Signal struct {
	// Name is the full hierarchical name, dot separated, rooted at the
	// top module name.
	Name   string
	Width  int
	Signed bool
	Kind   SignalKind
	// Index is the dense index into the simulator's value array.
	Index int
}

// RegSpec couples a register signal with its compiled next-value
// expression (reset behavior is already folded into Next by the SSA
// pass).
type RegSpec struct {
	Sig  *Signal
	Next Compiled
}

// MemWritePort is one synchronous write port of a memory.
type MemWritePort struct {
	Addr Compiled
	Data Compiled
	En   Compiled
}

// MemSpec is one behavioral memory.
type MemSpec struct {
	Name   string
	Width  int
	Depth  int
	Writes []MemWritePort
}

// Assign is one combinational assignment, stored in topological order.
type Assign struct {
	Dst  *Signal
	Expr Compiled
}

// InstanceNode is one node of the preserved design hierarchy.
type InstanceNode struct {
	// Name is the instance name ("cpu0"); the root uses the top module
	// name.
	Name string
	// Module is the defining module name.
	Module string
	// Path is the full dot-separated path of this instance.
	Path     string
	Children []*InstanceNode
	// Signals lists the local signal names (not full paths) visible in
	// this instance.
	Signals []string
}

// FindChild returns the named child instance, or nil.
func (n *InstanceNode) FindChild(name string) *InstanceNode {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Walk visits the instance tree depth-first, parents first.
func (n *InstanceNode) Walk(fn func(*InstanceNode)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Netlist is the flattened design.
type Netlist struct {
	Top     string
	Signals []*Signal
	byName  map[string]*Signal
	// Inputs lists top-level inputs (including clock and reset).
	Inputs []*Signal
	// Outputs lists top-level outputs.
	Outputs []*Signal
	// Assigns are combinational assignments in topological order.
	Assigns []Assign
	Regs    []RegSpec
	Mems    []*MemSpec
	// Hierarchy is the preserved instance tree rooted at the top module.
	Hierarchy *InstanceNode
}

// Signal returns the signal with the given full hierarchical name.
func (nl *Netlist) Signal(name string) (*Signal, bool) {
	s, ok := nl.byName[name]
	return s, ok
}

// SignalNames returns all signal names in sorted order.
func (nl *Netlist) SignalNames() []string {
	names := make([]string, 0, len(nl.Signals))
	for _, s := range nl.Signals {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// NumSignals returns the total signal count.
func (nl *Netlist) NumSignals() int { return len(nl.Signals) }

// Stats summarizes the netlist for reports.
func (nl *Netlist) Stats() string {
	return fmt.Sprintf("signals=%d assigns=%d regs=%d mems=%d",
		len(nl.Signals), len(nl.Assigns), len(nl.Regs), len(nl.Mems))
}

func (nl *Netlist) addSignal(name string, width int, signed bool, kind SignalKind) *Signal {
	s := &Signal{Name: name, Width: width, Signed: signed, Kind: kind, Index: len(nl.Signals)}
	nl.Signals = append(nl.Signals, s)
	nl.byName[name] = s
	return s
}
