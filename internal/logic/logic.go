// Package logic implements the four-value logic substrate shared by
// every analyzer in this repository: the Monte Carlo simulator, the
// SSTA baseline, and SPSTA itself.
//
// The four values are logic zero, logic one, a rising transition, and
// a falling transition, following Section 3.3 of the paper. A value
// describes what a net does during one clock cycle: it either holds a
// constant Boolean value or switches exactly once. Glitches
// (multiple switches) are filtered, matching the paper's Monte Carlo
// setup ("we do not count glitch").
package logic

import "fmt"

// Value is a four-value logic value: the behaviour of a net during
// one clock cycle.
type Value uint8

const (
	// Zero is constant logic zero for the whole cycle.
	Zero Value = iota
	// One is constant logic one for the whole cycle.
	One
	// Rise is a single zero-to-one transition during the cycle.
	Rise
	// Fall is a single one-to-zero transition during the cycle.
	Fall

	// NumValues is the number of distinct four-value logic values.
	NumValues = 4
)

// String returns the conventional one-character name: 0, 1, r, f.
func (v Value) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case Rise:
		return "r"
	case Fall:
		return "f"
	}
	return fmt.Sprintf("Value(%d)", uint8(v))
}

// Initial reports the Boolean value at the start of the cycle.
func (v Value) Initial() bool { return v == One || v == Fall }

// Final reports the Boolean value at the end of the cycle.
func (v Value) Final() bool { return v == One || v == Rise }

// Switching reports whether the value is a transition (Rise or Fall).
func (v Value) Switching() bool { return v == Rise || v == Fall }

// Invert returns the value seen through an inverter: constants swap,
// a rising transition becomes falling and vice versa.
func (v Value) Invert() Value {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	case Rise:
		return Fall
	default:
		return Rise
	}
}

// FromEdge builds a Value from the Boolean values at the start and
// end of the cycle.
func FromEdge(initial, final bool) Value {
	switch {
	case !initial && !final:
		return Zero
	case initial && final:
		return One
	case !initial && final:
		return Rise
	default:
		return Fall
	}
}

// GateType identifies the Boolean function of a netlist node.
// Input and DFF are structural node kinds rather than combinational
// functions: an Input node has no fanin, and a DFF node's output is a
// timing launch point while its single fanin is a timing endpoint.
type GateType uint8

const (
	// Input is a primary input node (no fanin).
	Input GateType = iota
	// DFF is a D flip-flop: its output launches a new cycle, its
	// fanin is captured at the end of the cycle.
	DFF
	// Buf is a single-input buffer.
	Buf
	// Not is a single-input inverter.
	Not
	// And is a multi-input AND gate.
	And
	// Nand is a multi-input NAND gate.
	Nand
	// Or is a multi-input OR gate.
	Or
	// Nor is a multi-input NOR gate.
	Nor
	// Xor is a multi-input XOR (odd parity) gate.
	Xor
	// Xnor is a multi-input XNOR (even parity) gate.
	Xnor
	// Const0 is a constant logic-zero source (no fanin).
	Const0
	// Const1 is a constant logic-one source (no fanin).
	Const1

	// NumGateTypes is the number of distinct gate types.
	NumGateTypes = 12
)

var gateNames = [NumGateTypes]string{
	"INPUT", "DFF", "BUFF", "NOT", "AND", "NAND",
	"OR", "NOR", "XOR", "XNOR", "CONST0", "CONST1",
}

// String returns the upper-case ISCAS'89 bench-format name.
func (g GateType) String() string {
	if int(g) < len(gateNames) {
		return gateNames[g]
	}
	return fmt.Sprintf("GateType(%d)", uint8(g))
}

// ParseGateType converts an ISCAS'89 bench-format gate name
// (case-insensitive; BUF and BUFF are both accepted) to a GateType.
func ParseGateType(s string) (GateType, error) {
	switch upper(s) {
	case "INPUT":
		return Input, nil
	case "DFF":
		return DFF, nil
	case "BUF", "BUFF":
		return Buf, nil
	case "NOT", "INV":
		return Not, nil
	case "AND":
		return And, nil
	case "NAND":
		return Nand, nil
	case "OR":
		return Or, nil
	case "NOR":
		return Nor, nil
	case "XOR":
		return Xor, nil
	case "XNOR":
		return Xnor, nil
	case "CONST0":
		return Const0, nil
	case "CONST1":
		return Const1, nil
	}
	return Input, fmt.Errorf("logic: unknown gate type %q", s)
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// Combinational reports whether the gate computes a Boolean function
// of its fanin (as opposed to Input, DFF and constants).
func (g GateType) Combinational() bool {
	switch g {
	case Input, DFF, Const0, Const1:
		return false
	}
	return true
}

// MinFanin returns the minimum legal fanin count for the gate type.
func (g GateType) MinFanin() int {
	switch g {
	case Input, Const0, Const1:
		return 0
	case DFF, Buf, Not:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal fanin count for the gate type,
// or -1 if unbounded.
func (g GateType) MaxFanin() int {
	switch g {
	case Input, Const0, Const1:
		return 0
	case DFF, Buf, Not:
		return 1
	default:
		return -1
	}
}

// Inverting reports whether the gate's output is the complement of
// its underlying monotone/parity core (NAND, NOR, NOT, XNOR).
func (g GateType) Inverting() bool {
	switch g {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// Controlling returns the controlling input value for the monotone
// gate family and whether the gate has one. An input at the
// controlling value forces the gate output regardless of the other
// inputs: 0 for AND/NAND, 1 for OR/NOR. Parity gates and single-input
// gates have no controlling value.
func (g GateType) Controlling() (value, ok bool) {
	switch g {
	case And, Nand:
		return false, true
	case Or, Nor:
		return true, true
	}
	return false, false
}

// Monotone reports whether the gate belongs to the monotone family
// (AND/NAND/OR/NOR/BUF/NOT), i.e. is unate in every input.
func (g GateType) Monotone() bool {
	switch g {
	case And, Nand, Or, Nor, Buf, Not:
		return true
	}
	return false
}

// Parity reports whether the gate is XOR or XNOR.
func (g GateType) Parity() bool { return g == Xor || g == Xnor }

// EvalBool computes the gate's Boolean function on Boolean inputs.
// It panics if the fanin count is illegal for the gate type; netlist
// construction validates arity so analyzers may rely on it.
func (g GateType) EvalBool(in []bool) bool {
	switch g {
	case Buf, DFF:
		return in[0]
	case Not:
		return !in[0]
	case Const0:
		return false
	case Const1:
		return true
	case And, Nand:
		all := true
		for _, b := range in {
			if !b {
				all = false
				break
			}
		}
		if g == Nand {
			return !all
		}
		return all
	case Or, Nor:
		any := false
		for _, b := range in {
			if b {
				any = true
				break
			}
		}
		if g == Nor {
			return !any
		}
		return any
	case Xor, Xnor:
		p := false
		for _, b := range in {
			p = p != b
		}
		if g == Xnor {
			return !p
		}
		return p
	}
	panic(fmt.Sprintf("logic: EvalBool on non-combinational gate %v", g))
}

// Eval computes the gate's four-value output for four-value inputs.
// The output is derived from the Boolean function applied to the
// initial and final input values; an initial==final output is a
// constant (any intermediate glitch is filtered), otherwise a
// transition. Use Settle to obtain the transition's arrival time.
func (g GateType) Eval(in []Value) Value {
	// Gates of up to 16 inputs evaluate on stack arrays, allocation
	// free (the parity enumeration calls Eval at every leaf).
	var initArr, finalArr [16]bool
	initial, final := initArr[:0], finalArr[:0]
	if len(in) > len(initArr) {
		initial, final = make([]bool, 0, len(in)), make([]bool, 0, len(in))
	}
	for _, v := range in {
		initial = append(initial, v.Initial())
		final = append(final, v.Final())
	}
	return FromEdge(g.EvalBool(initial), g.EvalBool(final))
}
