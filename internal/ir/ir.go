// Package ir defines a miniature compiler intermediate representation:
// functions of basic blocks holding three-address instructions over virtual
// registers, with φ instructions for SSA form. It is the substrate on which
// the paper's SSA results (Theorem 1) and the out-of-SSA coalescing
// problems are reproduced.
package ir

import (
	"fmt"
	"strings"
)

// Reg is a virtual register id. NoReg marks "no destination".
type Reg int

// NoReg is the absent register.
const NoReg Reg = -1

// Op is an instruction opcode.
type Op int

const (
	// OpDef is a generic computation: Dst = op(Args...). It stands in for
	// any arithmetic the paper's programs would contain.
	OpDef Op = iota
	// OpMove is a register-to-register copy: Dst = Args[0]. Moves are what
	// coalescing removes.
	OpMove
	// OpPhi is an SSA φ: Dst = φ(Args...), Args aligned with the block's
	// predecessors.
	OpPhi
	// OpUse consumes Args without producing a value (a store or a use by a
	// side effect); it keeps live ranges honest.
	OpUse
	// OpLoad reloads a spilled value from a stack slot: Dst = load Slot.
	OpLoad
	// OpStore spills Args[0] to a stack slot.
	OpStore
)

// String names the opcode.
func (o Op) String() string {
	switch o {
	case OpDef:
		return "def"
	case OpMove:
		return "move"
	case OpPhi:
		return "phi"
	case OpUse:
		return "use"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one instruction.
type Instr struct {
	Op   Op
	Dst  Reg
	Args []Reg
	// Slot is the stack slot of OpLoad/OpStore.
	Slot int
}

// Block is a basic block: φs first, then straight-line code. Control flow
// lives on the function (Succs/Preds by block index).
type Block struct {
	ID     int
	Name   string
	Instrs []Instr
	Succs  []int
	Preds  []int
}

// Func is a function: Blocks[0] is the entry.
type Func struct {
	Name    string
	Blocks  []*Block
	NumRegs int
	// regNames holds optional debug names per register.
	regNames []string
}

// NewFunc returns an empty function with an entry block.
func NewFunc(name string) *Func {
	f := &Func{Name: name}
	f.NewBlock("entry")
	return f
}

// NewBlock appends a block and returns it.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{ID: len(f.Blocks), Name: name}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	f.regNames = append(f.regNames, "")
	return r
}

// NewNamedReg allocates a fresh register with a debug name.
func (f *Func) NewNamedReg(name string) Reg {
	r := f.NewReg()
	f.regNames[r] = name
	return r
}

// RegName renders a register for listings.
func (f *Func) RegName(r Reg) string {
	if r == NoReg {
		return "_"
	}
	if int(r) < len(f.regNames) && f.regNames[r] != "" {
		return f.regNames[r]
	}
	return fmt.Sprintf("v%d", int(r))
}

// AddEdge wires a CFG edge from a to b.
func (f *Func) AddEdge(a, b *Block) {
	for _, s := range a.Succs {
		if s == b.ID {
			return
		}
	}
	a.Succs = append(a.Succs, b.ID)
	b.Preds = append(b.Preds, a.ID)
}

// Def appends Dst = op(Args...).
func (b *Block) Def(dst Reg, args ...Reg) {
	b.Instrs = append(b.Instrs, Instr{Op: OpDef, Dst: dst, Args: args})
}

// Move appends Dst = Src.
func (b *Block) Move(dst, src Reg) {
	b.Instrs = append(b.Instrs, Instr{Op: OpMove, Dst: dst, Args: []Reg{src}})
}

// Use appends a value-consuming instruction.
func (b *Block) Use(args ...Reg) {
	b.Instrs = append(b.Instrs, Instr{Op: OpUse, Args: args, Dst: NoReg})
}

// Phi prepends/appends Dst = φ(Args...); callers must keep φs first.
func (b *Block) Phi(dst Reg, args ...Reg) {
	b.Instrs = append(b.Instrs, Instr{Op: OpPhi, Dst: dst, Args: args})
}

// Clone deep-copies the function.
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:     f.Name,
		NumRegs:  f.NumRegs,
		regNames: append([]string(nil), f.regNames...),
	}
	for _, b := range f.Blocks {
		nb := &Block{
			ID:    b.ID,
			Name:  b.Name,
			Succs: append([]int(nil), b.Succs...),
			Preds: append([]int(nil), b.Preds...),
		}
		for _, ins := range b.Instrs {
			nb.Instrs = append(nb.Instrs, Instr{
				Op: ins.Op, Dst: ins.Dst, Slot: ins.Slot,
				Args: append([]Reg(nil), ins.Args...),
			})
		}
		nf.Blocks = append(nf.Blocks, nb)
	}
	return nf
}

// Verify checks structural invariants: edge symmetry, φs first and with one
// argument per predecessor, register ids in range.
func (f *Func) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: no blocks")
	}
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("ir: block %d has ID %d", i, b.ID)
		}
		for _, s := range b.Succs {
			if s < 0 || s >= len(f.Blocks) {
				return fmt.Errorf("ir: block %s has bad successor %d", b.Name, s)
			}
			found := false
			for _, p := range f.Blocks[s].Preds {
				if p == b.ID {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("ir: edge %s->%s not symmetric", b.Name, f.Blocks[s].Name)
			}
		}
		phiZone := true
		for j, ins := range b.Instrs {
			if ins.Op == OpPhi {
				if !phiZone {
					return fmt.Errorf("ir: φ after non-φ in block %s", b.Name)
				}
				if len(ins.Args) != len(b.Preds) {
					return fmt.Errorf("ir: φ in %s has %d args for %d preds", b.Name, len(ins.Args), len(b.Preds))
				}
			} else {
				phiZone = false
			}
			if ins.Dst != NoReg && (ins.Dst < 0 || int(ins.Dst) >= f.NumRegs) {
				return fmt.Errorf("ir: block %s instr %d dst out of range", b.Name, j)
			}
			for _, a := range ins.Args {
				if a < 0 || int(a) >= f.NumRegs {
					return fmt.Errorf("ir: block %s instr %d arg out of range", b.Name, j)
				}
			}
			switch ins.Op {
			case OpMove:
				if len(ins.Args) != 1 || ins.Dst == NoReg {
					return fmt.Errorf("ir: malformed move in %s", b.Name)
				}
			case OpUse, OpStore:
				if ins.Dst != NoReg {
					return fmt.Errorf("ir: %s with destination in %s", ins.Op, b.Name)
				}
			case OpLoad:
				if ins.Dst == NoReg {
					return fmt.Errorf("ir: load without destination in %s", b.Name)
				}
			}
		}
	}
	return nil
}

// CountMoves reports the number of move instructions.
func (f *Func) CountMoves() int {
	n := 0
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == OpMove {
				n++
			}
		}
	}
	return n
}

// String renders a listing.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (%d regs)\n", f.Name, f.NumRegs)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:", b.Name)
		if len(b.Preds) > 0 {
			fmt.Fprintf(&sb, " ; preds:")
			for _, p := range b.Preds {
				fmt.Fprintf(&sb, " %s", f.Blocks[p].Name)
			}
		}
		sb.WriteString("\n")
		for _, ins := range b.Instrs {
			sb.WriteString("  ")
			switch ins.Op {
			case OpPhi:
				fmt.Fprintf(&sb, "%s = φ(", f.RegName(ins.Dst))
				for i, a := range ins.Args {
					if i > 0 {
						sb.WriteString(", ")
					}
					sb.WriteString(f.RegName(a))
				}
				sb.WriteString(")")
			case OpMove:
				fmt.Fprintf(&sb, "%s = %s", f.RegName(ins.Dst), f.RegName(ins.Args[0]))
			case OpDef:
				fmt.Fprintf(&sb, "%s = def(", f.RegName(ins.Dst))
				for i, a := range ins.Args {
					if i > 0 {
						sb.WriteString(", ")
					}
					sb.WriteString(f.RegName(a))
				}
				sb.WriteString(")")
			case OpUse:
				sb.WriteString("use(")
				for i, a := range ins.Args {
					if i > 0 {
						sb.WriteString(", ")
					}
					sb.WriteString(f.RegName(a))
				}
				sb.WriteString(")")
			case OpLoad:
				fmt.Fprintf(&sb, "%s = load [%d]", f.RegName(ins.Dst), ins.Slot)
			case OpStore:
				fmt.Fprintf(&sb, "store [%d], %s", ins.Slot, f.RegName(ins.Args[0]))
			}
			sb.WriteString("\n")
		}
		if len(b.Succs) > 0 {
			sb.WriteString("  -> ")
			for i, s := range b.Succs {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(f.Blocks[s].Name)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
