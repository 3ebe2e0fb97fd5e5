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
// The run-wide characterization outputs come from the same inputs on the
// plain loop (EntryCounts.SetPlain): per-PC counts are entry count ×
// suffix, instruction coverage is the union of the entered suffixes, and
// data coverage is the word of every access, all of which the plain body
// checks and marks into a WordSet as it runs.
//
// A block only ends early on a fault or a step-limit exit (control
// transfers, HALT included, terminate blocks). The framework discards the
// per-packet counts of a faulted packet, so whole-suffix accounting is
// exact for every record that is kept; for the run-wide outputs, which do
// keep what a faulted packet executed, the plain loop records how far the
// block it stopped in got (EntryCounts.Cut).
package vm

import (
	"math/bits"

	"repro/internal/isa"
)

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
	// plain and words are the SetPlain configuration.
	plain bool
	words *WordSet
	// cutAt and cutEnd record a run that stopped inside a block: its
	// last entry, at cutAt, executed only [cutAt, cutEnd). cutEnd is 0
	// when every entry ran its whole suffix.
	cutAt, cutEnd int32
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
	e.cutEnd = 0
}

// SetPlain selects the body the runs that fill e execute. With plain
// set, RunProgram dispatches the fully checked body (runFast) even for a
// fused program, so every memory op is checked and counted as it runs
// (the summaries then add no proven-op counts), a run that stops inside
// a block records how far it got (Cut), and a non-nil words receives the
// word of every data access. Run-wide coverage and per-PC counts need
// all three; records mode passes (false, nil) and runs whichever body
// the program prefers. words is only marked on the plain body.
func (e *EntryCounts) SetPlain(plain bool, words *WordSet) { e.plain, e.words = plain, words }

// Plain reports whether the runs that fill e execute the fully checked
// body (SetPlain).
func (e *EntryCounts) Plain() bool { return e.plain }

// Cut reports how far a plain-body run that stopped inside a block got:
// execution last entered that block at index entry and executed only
// [entry, end) — through the faulting instruction, or up to the one a
// step budget cut off. ok is false when every entry ran its whole
// suffix. An entry's earlier entries ran whole suffixes.
func (e *EntryCounts) Cut() (entry, end int, ok bool) {
	return int(e.cutAt), int(e.cutEnd), e.cutEnd != 0
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

// touch is access for the plain loop: it also marks the accessed word
// when the record tracks data coverage.
func (e *EntryCounts) touch(r Region, write bool, addr uint32) {
	e.mem[memSlot(r, write)&3]++
	if e.words != nil {
		e.words.Mark(r, addr)
	}
}

// cut records that the run stops inside the block it last entered, at
// index entry, having executed [entry, end). The plain loop calls it on
// its cold stop paths only; a nil record ignores it.
func (e *EntryCounts) cut(entry, end int) {
	if e != nil {
		e.cutAt, e.cutEnd = int32(entry), int32(end)
	}
}

// WordSet is a run-wide set of touched 32-bit data words: one bit per
// word of each data region (packet, data, stack) of a layout, the memory
// coverage Table IV reports. Aligned accesses never span a word, so the
// word of an access's address covers all of it. The collector's
// per-event Mem hook and the plain loop's checked-op hook both mark into
// it.
type WordSet struct {
	regions [numRegions]wordBits
}

// wordBits is the bitset of one region, keyed off its base address.
type wordBits struct {
	base uint32
	bits []uint64
}

// NewWordSet builds an empty word set over l's data regions.
func NewWordSet(l Layout) *WordSet {
	s := &WordSet{}
	for _, r := range []struct {
		r         Region
		base, end uint32
	}{
		{RegionPacket, l.PacketBase, l.PacketEnd},
		{RegionData, l.DataBase, l.DataEnd},
		{RegionStack, l.StackBase, l.StackEnd},
	} {
		words := (r.end - r.base + 3) / 4
		s.regions[r.r] = wordBits{base: r.base, bits: make([]uint64, (words+63)/64)}
	}
	return s
}

// Mark adds the word containing addr, which must lie inside data region
// r.
func (s *WordSet) Mark(r Region, addr uint32) {
	b := &s.regions[r]
	w := (addr - b.base) / 4
	b.bits[w>>6] |= 1 << (w & 63)
}

// Count returns the number of marked words in region r.
func (s *WordSet) Count(r Region) int {
	n := 0
	for _, w := range s.regions[r].bits {
		n += bits.OnesCount64(w)
	}
	return n
}
