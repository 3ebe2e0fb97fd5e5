// Block-summary statistics.
//
// The paper's default packet record (instructions, unique instructions,
// basic blocks, packet and non-packet reads and writes) follows from two
// inputs: how often each block entry point was entered, and the region of
// every memory op whose region the verifier did not prove. The untraced
// loops (runFast, runFused) record the first in an EntryCounts and count
// only their checked memory ops dynamically; everything else is a
// load-time summary of the straight-line run from each instruction to the
// end of its block. The statistics collector (internal/stats) turns the
// two into the same record the per-instruction tracer path produces.
//
// A block only ends early on a fault or a step-limit exit (control
// transfers, HALT included, terminate blocks), and the framework discards
// the counts of a faulted packet, so whole-suffix accounting is exact for
// every record that is kept.
package vm

import "repro/internal/isa"

// Suffix summarizes the straight-line run from one instruction to the
// exclusive end of its basic block: the instructions it retires and the
// memory ops in it whose region the verifier proved. Checked memory ops
// are not included — the untraced loops count those as they execute.
type Suffix struct {
	// End is the exclusive end index of the instruction's block.
	End int
	// Block is the instruction's basic block.
	Block int
	// Proven memory ops in [i, End), split like the packet record.
	PacketReads, PacketWrites       uint32
	NonPacketReads, NonPacketWrites uint32
}

// suffixMem is the per-instruction proven-op part of a Suffix.
type suffixMem struct {
	pktR, pktW, npR, npW uint32
}

// buildSuffixes fills p.suffix from the original text and the regions
// the untraced body runs unchecked (proven[i] != RegionNone). Deriving
// the summary from the text rather than the rewritten body keeps proven
// loads into zero (folded to uNOP) and the hidden members of fused groups
// counted. proven may be nil: nothing is proven.
func (p *Program) buildSuffixes(text []isa.Instruction, proven []Region) {
	n := len(text)
	p.suffix = make([]suffixMem, n)
	for i := n - 1; i >= 0; i-- {
		var s suffixMem
		if i+1 < int(p.endAt[i]) {
			s = p.suffix[i+1]
		}
		if proven != nil && proven[i] != RegionNone {
			op := text[i].Op
			switch {
			case op.IsLoad() && proven[i] == RegionPacket:
				s.pktR++
			case op.IsLoad():
				s.npR++
			case op.IsStore() && proven[i] == RegionPacket:
				s.pktW++
			case op.IsStore():
				s.npW++
			}
		}
		p.suffix[i] = s
	}
}

// Suffix returns the summary of the straight-line run from instruction
// index i to the end of its block.
func (p *Program) Suffix(i int) Suffix {
	m := p.suffix[i]
	return Suffix{
		End: int(p.endAt[i]), Block: int(p.blockOf[i]),
		PacketReads: m.pktR, PacketWrites: m.pktW,
		NonPacketReads: m.npR, NonPacketWrites: m.npW,
	}
}

// Fused reports whether RunProgram's untraced path dispatches this
// program on the proof-guided loop (runFused) rather than the plain one
// (runFast).
func (p *Program) Fused() bool { return p.ext != nil }

// EntryCounts is the per-packet block-entry record the untraced loops
// fill when it is attached to a CPU (CPU.Entries): how many times
// execution entered a block at each instruction index, plus the
// region-split counts of the checked memory ops that executed. It is
// allocation-free once built: stamps and counts are preallocated per
// instruction, the touched list can hold every instruction, and Reset
// starts a new packet by bumping an epoch instead of clearing.
type EntryCounts struct {
	prog    *Program
	epoch   uint32
	slots   []entrySlot
	touched []int32 // entry indexes stamped this epoch, in first-entry order
	nt      int
	// mem holds the checked memory ops' dynamic counts, indexed by
	// memSlot.
	mem [4]uint64
}

type entrySlot struct {
	n     uint64
	epoch uint32
}

// NewEntryCounts builds an entry record sized for p.
func NewEntryCounts(p *Program) *EntryCounts {
	n := len(p.ops)
	return &EntryCounts{
		prog:    p,
		epoch:   1,
		slots:   make([]entrySlot, n),
		touched: make([]int32, n),
	}
}

// Program returns the program whose entries are recorded.
func (e *EntryCounts) Program() *Program { return e.prog }

// Reset forgets all recorded entries and memory counts.
func (e *EntryCounts) Reset() {
	e.epoch++
	if e.epoch == 0 {
		// Wrapped: stale stamps could alias the new epoch.
		for i := range e.slots {
			e.slots[i].epoch = 0
		}
		e.epoch = 1
	}
	e.nt = 0
	e.mem = [4]uint64{}
}

// Touched returns the instruction indexes entered since the last Reset,
// in first-entry order. The slice is only valid until the next run.
func (e *EntryCounts) Touched() []int32 { return e.touched[:e.nt] }

// Count returns how many times execution entered a block at instruction
// index i since the last Reset.
func (e *EntryCounts) Count(i int) uint64 {
	if s := e.slots[i]; s.epoch == e.epoch {
		return s.n
	}
	return 0
}

// Checked returns the region-split counts of the checked (unproven)
// memory ops executed since the last Reset.
func (e *EntryCounts) Checked() (pktReads, pktWrites, nonPktReads, nonPktWrites uint64) {
	return e.mem[memSlot(RegionPacket, false)], e.mem[memSlot(RegionPacket, true)],
		e.mem[memSlot(RegionData, false)], e.mem[memSlot(RegionData, true)]
}

// enter records one block entry at instruction index i.
func (e *EntryCounts) enter(i int) {
	s := &e.slots[i]
	if s.epoch != e.epoch {
		s.epoch, s.n = e.epoch, 0
		e.touched[e.nt] = int32(i)
		e.nt++
	}
	s.n++
}

// memSlot indexes EntryCounts.mem: packet/non-packet × read/write, the
// record's split (stack accesses count as non-packet).
func memSlot(r Region, write bool) int {
	s := 0
	if r == RegionPacket {
		s = 2
	}
	if write {
		s++
	}
	return s
}

// access counts one executed checked memory op.
func (e *EntryCounts) access(r Region, write bool) { e.mem[memSlot(r, write)&3]++ }
