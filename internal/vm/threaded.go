// Block-threaded execution engine.
//
// The reference interpreter (CPU.Run) pays a fixed per-instruction tax:
// a return-address check, a step-budget check, a fetch bounds/alignment
// check, a tracer nil-check, and a 40-way opcode switch over operands
// that are re-read from the decoded Instruction on every execution. For
// the per-packet hot path — millions of simulated instructions per trace
// — that tax dominates the run time.
//
// Translate compiles the decoded text segment once, at load time, into a
// flat array of pre-decoded micro-ops grouped into the basic blocks of
// an analysis.BlockMap. Within a block the engine executes straight-line
// with no fetch checks at all: the entry PC is validated once at the
// block boundary, the step budget is charged per block (falling back to
// a truncated body only when the budget would expire mid-block), and
// every operand — register indexes, sign- or zero-extended immediates,
// the pre-shifted LUI constant, branch and jump targets — was resolved
// during translation. Static branch/JAL targets dispatch directly to the
// target instruction index; only the indirect JALR pays a full PC
// validation, exactly like the interpreter's fetch path.
//
// The dispatch loops carry zero tracing branches — only the nil-checked
// block-entry and checked-memory hooks behind block-summary statistics
// and coverage (summary.go). A run with a Tracer attached executes on the
// interpreter instead, which owns the per-instruction event order: Instr
// before the step is counted, Mem between the fault checks and the
// access, c.PC current at every tracer call so a panicking tracer (the
// fault injector does this on purpose) is recovered at the right PC.
//
// TranslateWithFacts goes one rung further: proof-guided translation.
// The static verifier's abstract interpretation (internal/staticcheck)
// exports per-instruction facts — proven-in-bounds memory operands,
// always/never-taken branches, redundant masks, dead blocks — and the
// translator uses them to emit unchecked load/store micro-ops (no
// alignment or region check at run time), fold proven branches, and
// rewrite identity masks to moves. Independently of facts it peephole-
// fuses adjacent same-block instruction pairs into superinstructions
// (shift+or, addi+blt latches, load+load, la's lui+ori, ...), halving
// the dispatch count on the hot idioms. The optimized body is dispatch-
// only state: the second slot of each fused pair keeps its single-op
// form so indirect entry mid-pair stays exact, budget-truncated block
// passes fall back to the unfused body, and the plain loop runs the
// fully-checked translation whenever statistics need every data access
// marked (EntryCounts.SetPlain). Unverified programs (Options.NoVerify)
// never reach TranslateWithFacts.
//
// The interpreter remains the oracle: for any program and input the two
// engines produce identical register files, memory images, step counts,
// stop reasons and fault kind/PC/Addr. Differential tests (threaded_test,
// core's engine-diff harness, FuzzEngineDiff) pin that contract.
package vm

import (
	"encoding/binary"

	"repro/internal/analysis"
	"repro/internal/isa"
)

// Micro-op codes. ALU ops whose destination is the zero register are
// translated to uNOP (architecturally they have no effect); loads keep
// their full fault-check/trace behavior and only the write-back is
// discarded, matching the interpreter.
const (
	uNOP uint8 = iota
	uADD
	uSUB
	uAND
	uOR
	uXOR
	uSLL
	uSRL
	uSRA
	uSLT
	uSLTU
	uMUL
	uADDI
	uANDI
	uORI
	uXORI
	uSLLI
	uSRLI
	uSRAI
	uSLTI
	uSLTIU
	uLI // rd <- imm (LUI with the <<12 applied at translation time)
	uLB
	uLBU
	uLH
	uLHU
	uLW
	uSB
	uSH
	uSW
	uBEQ
	uBNE
	uBLT
	uBGE
	uBLTU
	uBGEU
	uJAL
	uJALR
	uHALT
	uBAD // undecodable instruction: FaultBadInstr when executed

	// Proof-guided micro-ops. Everything below this line is emitted only
	// by TranslateWithFacts, never by Translate: unverified programs
	// (Options.NoVerify) always run the fully-checked codes above.

	// Unchecked memory ops: the verifier proved the access aligned and
	// inside the mapped region carried in rs2, so no alignment or
	// classification check runs at all. Loads with rd == zero are folded
	// to uNOP instead (they can neither fault nor write).
	uULB
	uULBU
	uULH
	uULHU
	uULW
	uUSB
	uUSH
	uUSW

	// uGOTO is a conditional branch the verifier proved always taken:
	// same imm/aux encoding as a branch, no comparison.
	uGOTO

	// Specialized two-instruction superinstructions for the ALU+ALU
	// pairs the guest profiler shows hottest (shift/or/mask assembly in
	// checksum and hash loops, la/li's LUI+ORI expansion, radix-walk
	// index arithmetic). First instruction in rd/rs1/rs2/imm, second in
	// rd2/rs3/rs4/imm2, executed strictly in sequence.
	uFSrliSlli
	uFSlliOr
	uFAndiOr
	uFXorSlli
	uFOrAddi
	uFLuiOri
	uFSrliAndi
	uFSlliAdd
	uFSrliAdd
	uFOrAdd
	uFAndAdd
	uFSlliSlli
	uFOrOr
	uFAndSltu
	uFXorAdd
	uFAddAddi
	uFAddiAddi

	// Specialized ALU+branch loop latches (addi+blt closes every counted
	// loop the assembler emits; and+bne closes the radix prefix check).
	uFAddiBlt
	uFAndBne

	// Generic fused pairs: the component codes live in op1/op2 and are
	// dispatched by a small inner switch. Memory components fuse only
	// when proven and carry their region in rs2 (first position) or rs4
	// (second position) — the fused cases run no fault checks, which is
	// also what keeps the dispatch loop small enough for the compiler to
	// keep inlining the page-cache accessors into it. uFAddiJal fuses
	// the mv/addi feeding a call or jump.
	uFAluBr
	uFAddiJal
	uFAluLd
	uFAluSt
	uFLdAlu
	uFLdBr
	uFLdLd
	uFLdSt

	// Specialized three-instruction ALU superinstructions for the
	// shift/or/mix chains the bit-serial loops emit (the TSA sub-key
	// walk is three of these per iteration). The head keeps the first
	// instruction in its own microOp fields; the second and third live
	// in ext[i] and ext[i+1] (both of which also keep their single-op
	// micro-op form for mid-entry via indirect jump).
	uF3SrliSlliAndi
	uF3SlliOrXor
	uF3SlliOrAddi

	// Wider data-driven superinstructions for the TSA sub-key walk, the
	// single hottest loop in the bundled apps (its body is 81% of all
	// executed instructions on the small-packet benchmark): the
	// five-instruction bit-extract chain that computes its table index,
	// and the four-instruction shift/accumulate + loop latch that closes
	// it. Same encoding scheme as the triples, one more ext slot each.
	uF4SlliOrAddiBlt
	uF5SrliSlliAndiOrAdd

	// uF7SlliOrXorSlliOrAddiBlt is the sub-key walk's entire tail — the
	// two shift/accumulate chains after its table load plus the loop
	// latch — leaving the loop at three dispatches per iteration
	// (bit-extract, table load, tail).
	uF7SlliOrXorSlliOrAddiBlt
)

// Special aux values for statically resolved control-transfer targets.
const (
	// auxFault marks a static target outside the text segment; taking the
	// transfer raises FaultBadFetch at the target PC (recomputed from the
	// imm byte offset), after the budget check, like the interpreter.
	auxFault int32 = -1
	// auxReturn marks a static target equal to ReturnAddress.
	auxReturn int32 = -2
)

// microOp is one pre-decoded instruction. Register fields are masked to
// the architectural range at translation time (and re-masked with &15 at
// the use sites, which is what actually lets the compiler drop the
// register-file bounds checks). imm holds the ready-to-use
// immediate: sign/zero-extended for ALU and memory ops, the full shifted
// constant for uLI, and for branches and uJAL the byte offset from the
// instruction's own PC to the target (4 + imm*4), which the fault path
// uses to recompute an out-of-text target address.
// A fused head keeps its first instruction in these fields, carries the
// second instruction's static control-transfer target in aux (a fused
// head is never itself a branch, so the slot is free), and finds the
// rest of the pair in its fusedExt slot. Unchecked memory ops carry
// their verifier-proven region in the otherwise unused rs2 (rs4 in
// second position).
type microOp struct {
	code uint8
	rd   uint8
	rs1  uint8
	rs2  uint8
	imm  uint32
	aux  int32 // branch/JAL target instruction index, or auxFault/auxReturn
}

// fusedExt is the second bank of operands for a fused pair, kept in a
// parallel array (Program.ext) so the plain micro-op stays 12 bytes —
// the dispatch loop's memory traffic is dominated by sequential op
// reads, and only fused heads ever touch their ext slot. rd2/rs3/rs4/
// imm2 mirror rd/rs1/rs2/imm for the pair's second instruction; op1/op2
// hold the component codes for the generic fused kinds (and the proven
// region of a second-position memory component travels in rs4).
type fusedExt struct {
	op1  uint8
	op2  uint8
	rd2  uint8
	rs3  uint8
	rs4  uint8
	imm2 uint32
}

// Program is a translated text segment, ready for block-threaded
// execution on any CPU whose text base matches the one it was translated
// for. A Program is immutable after Translate and safe to share between
// cores (each CPU carries its own mutable state).
type Program struct {
	ops []microOp
	// fops is the optimized body the untraced loop dispatches from:
	// proof-rewritten (unchecked/folded) ops with fused heads. The
	// second slot of a fused pair keeps its single-op form so indirect
	// entry into the middle of a pair stays correct, and the loop runs
	// the plain ops body instead whenever the step budget truncates a
	// block. Translate aliases fops to ops; only TranslateWithFacts
	// builds a distinct body.
	fops []microOp
	// ext holds the fused pairs' second-bank operands, parallel to fops
	// (nil for a plain Translate program, whose body has no fused heads).
	ext      []fusedExt
	stats    TranslateStats
	textBase uint32
	blockOf  []int32 // instruction index -> block id
	blockEnd []int32 // block id -> exclusive end instruction index
	leader   []int32 // block id -> leader instruction index
	endAt    []int32 // instruction index -> exclusive end of its block
	// suffix is the block-summary statistics table (summary.go):
	// instruction index -> proven memory ops from it to its block end.
	suffix []suffixMem
}

// NumBlocks returns the number of translated basic blocks.
func (p *Program) NumBlocks() int { return len(p.blockEnd) }

// TranslateStats summarizes what proof-guided translation changed
// relative to the fully-checked baseline. All fields are zero for a
// Program built by plain Translate.
type TranslateStats struct {
	FusedPairs      int // instruction pairs fused into superinstructions
	FusedTriples    int // instruction triples fused into superinstructions
	FusedWide       int // 4- and 5-instruction superinstructions
	UncheckedLoads  int // loads with elided alignment/region checks
	UncheckedStores int // stores with elided alignment/region checks
	FoldedBranches  int // branches proven always/never taken
	ElidedMasks     int // AND/ANDI rewritten to moves (provably identity)
	DeadBlocks      int // blocks proven unreachable (left fully checked)
}

// Stats reports the proof-guided translation summary for this program.
func (p *Program) Stats() TranslateStats { return p.stats }

// Translate compiles a decoded text segment into a block-threaded
// Program using the given basic-block decomposition, which must have
// been built from the same text and textBase.
func Translate(text []isa.Instruction, textBase uint32, blocks *analysis.BlockMap) *Program {
	n := len(text)
	p := &Program{
		ops:      make([]microOp, n),
		textBase: textBase,
		blockOf:  make([]int32, n),
		blockEnd: make([]int32, blocks.NumBlocks()),
		leader:   make([]int32, blocks.NumBlocks()),
		endAt:    make([]int32, n),
	}
	for b := 0; b < blocks.NumBlocks(); b++ {
		p.blockEnd[b] = int32(blocks.EndIndex(b))
		p.leader[b] = int32(blocks.LeaderIndex(b))
	}
	for i, in := range text {
		p.blockOf[i] = int32(blocks.BlockOfIndex(i))
		p.endAt[i] = p.blockEnd[p.blockOf[i]]
		p.ops[i] = translateOne(i, in, textBase, n)
	}
	p.fops = p.ops
	p.buildSuffixes(text, nil)
	return p
}

// TranslateWithFacts compiles like Translate and then optimizes the
// untraced dispatch body using verifier-proven facts: proven loads and
// stores become unchecked micro-ops, proven-direction branches fold to
// uNOP/uGOTO, provably redundant masks become moves, and adjacent
// instruction pairs inside a block fuse into superinstructions. A nil
// facts still fuses pairs that need no proof (ALU/branch/checked-load
// idioms) but emits no unchecked memory op and folds nothing — the
// no-proof-no-elision contract tests pin exactly that.
//
// Dead blocks keep their fully-checked, unfused translation: facts
// claim nothing about them, so nothing may be optimized there.
func TranslateWithFacts(text []isa.Instruction, textBase uint32, blocks *analysis.BlockMap, facts *TranslationFacts) *Program {
	p := Translate(text, textBase, blocks)
	n := len(text)
	if n == 0 {
		return p
	}
	fops := make([]microOp, n)
	copy(fops, p.ops)

	if facts != nil {
		// proven records the regions the optimized body runs unchecked:
		// the block summaries count those ops statically.
		proven := make([]Region, n)
		for i := 0; i < n; i++ {
			if facts.deadAt(int(p.blockOf[i])) {
				continue
			}
			op := &fops[i]
			switch op.code {
			case uLB, uLBU, uLH, uLHU, uLW:
				if r := facts.memAt(i); r != RegionNone {
					proven[i] = r
					if op.rd == 0 {
						// Cannot fault, cannot write: architecturally inert.
						*op = microOp{code: uNOP}
					} else {
						op.code = op.code - uLB + uULB
						op.rs2 = uint8(r)
					}
					p.stats.UncheckedLoads++
				}
			case uSB, uSH, uSW:
				if r := facts.memAt(i); r != RegionNone {
					proven[i] = r
					op.code = op.code - uSB + uUSB
					op.rs2 = uint8(r)
					p.stats.UncheckedStores++
				}
			case uAND, uANDI:
				if facts.redundantAt(i) {
					// The mask provably keeps every possibly-set source
					// bit: the op is a register move.
					if op.rd == op.rs1 {
						*op = microOp{code: uNOP}
					} else {
						*op = microOp{code: uADDI, rd: op.rd, rs1: op.rs1}
					}
					p.stats.ElidedMasks++
				}
			case uBEQ, uBNE, uBLT, uBGE, uBLTU, uBGEU:
				switch facts.branchAt(i) {
				case BranchNever:
					*op = microOp{code: uNOP}
					p.stats.FoldedBranches++
				case BranchAlways:
					op.code = uGOTO
					p.stats.FoldedBranches++
				}
			}
		}
		for b := 0; b < blocks.NumBlocks(); b++ {
			if facts.deadAt(b) {
				p.stats.DeadBlocks++
			}
		}
		p.buildSuffixes(text, proven)
	}

	// Greedy left-to-right peephole pairing within each block. The head
	// slot takes the fused form; the consumed slots keep their single-op
	// form so an indirect jump landing mid-group executes correctly, and
	// sequential execution skips them. Triples are matched before pairs:
	// a triple always saves one more dispatch than any pairing of the
	// same three instructions.
	//
	// Fusion is gated per program: the fused dispatch loop carries a
	// bigger switch than the plain one, so a program whose hot loops
	// barely fuse pays the larger-loop tax on every dispatch and wins
	// nothing back. The trial below records the weighted dispatch
	// reduction (loop bodies, where dispatches actually repeat, count
	// fuseLoopWeight times) and the fused body is kept only when the
	// estimated reduction clears fuseKeepPct.
	rewrote := p.stats.UncheckedLoads+p.stats.UncheckedStores+
		p.stats.FoldedBranches+p.stats.ElidedMasks > 0
	base := make([]microOp, n)
	copy(base, fops)
	weight := loopWeights(fops, n)
	var savedW, totalW uint64
	for i := 0; i < n; i++ {
		totalW += weight[i]
	}
	ext := make([]fusedExt, n)
	for i := 0; i < n-1; i++ {
		if p.endAt[i] != p.endAt[i+1] || facts.deadAt(int(p.blockOf[i])) {
			continue
		}
		if i+6 < n && p.endAt[i] == p.endAt[i+6] &&
			fops[i].code == uSLLI && fops[i+1].code == uOR && fops[i+2].code == uXOR &&
			fops[i+3].code == uSLLI && fops[i+4].code == uOR && fops[i+5].code == uADDI &&
			fops[i+6].code == uBLT {
			for k := 1; k <= 6; k++ {
				ext[i+k-1] = singleExt(&fops[i+k])
			}
			fops[i].code, fops[i].aux = uF7SlliOrXorSlliOrAddiBlt, fops[i+6].aux
			p.stats.FusedWide++
			savedW += 6 * weight[i]
			i += 6
			continue
		}
		if i+4 < n && p.endAt[i] == p.endAt[i+4] &&
			fops[i].code == uSRLI && fops[i+1].code == uSLLI && fops[i+2].code == uANDI &&
			fops[i+3].code == uOR && fops[i+4].code == uADD {
			for k := 1; k <= 4; k++ {
				ext[i+k-1] = singleExt(&fops[i+k])
			}
			fops[i].code = uF5SrliSlliAndiOrAdd
			p.stats.FusedWide++
			savedW += 4 * weight[i]
			i += 4
			continue
		}
		if i+3 < n && p.endAt[i] == p.endAt[i+3] &&
			fops[i].code == uSLLI && fops[i+1].code == uOR &&
			fops[i+2].code == uADDI && fops[i+3].code == uBLT {
			for k := 1; k <= 3; k++ {
				ext[i+k-1] = singleExt(&fops[i+k])
			}
			// The latch's static target rides in the head's aux slot (the
			// head is an ALU op, so the slot is free, same as for pairs).
			fops[i].code, fops[i].aux = uF4SlliOrAddiBlt, fops[i+3].aux
			p.stats.FusedWide++
			savedW += 3 * weight[i]
			i += 3
			continue
		}
		if i+2 < n && p.endAt[i] == p.endAt[i+2] {
			key := [3]uint8{fops[i].code, fops[i+1].code, fops[i+2].code}
			if code, ok := fuseAAA[key]; ok {
				ext[i] = singleExt(&fops[i+1])
				ext[i+1] = singleExt(&fops[i+2])
				fops[i].code = code
				p.stats.FusedTriples++
				savedW += 2 * weight[i]
				i += 2 // neither consumed slot can also start a group
				continue
			}
		}
		if fused, fx, ok := fusePair(&fops[i], &fops[i+1]); ok {
			fops[i], ext[i] = fused, fx
			p.stats.FusedPairs++
			savedW += weight[i]
			i++ // the consumed slot cannot also start a pair
		}
	}
	if savedW*100 >= totalW*fuseKeepPct {
		p.fops, p.ext = fops, ext
		return p
	}
	// Fusion gated off: the estimated dispatch reduction does not pay
	// for the fused loop's larger switch. Keep the facts rewrites (they
	// only remove work) on the pre-fusion body; a program with no
	// rewrites either runs the plain loop with the plain body.
	p.stats.FusedPairs, p.stats.FusedTriples, p.stats.FusedWide = 0, 0, 0
	if rewrote {
		// The trial's ext slots are unreachable: base has no fused heads,
		// and only a fused head ever reads its ext slot.
		p.fops, p.ext = base, ext
	}
	return p
}

// Fusion gate parameters: an instruction inside a statically detected
// loop (spanned by a backward branch) counts fuseLoopWeight dispatches
// against one for straight-line code, and the fused body is kept only
// when it eliminates at least fuseKeepPct percent of the weighted
// dispatches. 64 approximates the bundled apps' per-packet iteration
// counts (table walks of 16-64 rounds); 20% is roughly where the
// measured fused-loop tax breaks even on the dispatch benchmarks.
const (
	fuseLoopWeight = 64
	fuseKeepPct    = 20
)

// loopWeights estimates each instruction's relative dynamic dispatch
// frequency from the translated control flow alone: every backward
// static control transfer (branch, folded uGOTO, or JAL with a target
// at or before itself) marks its span as a loop, and instructions
// inside at least one such span weigh fuseLoopWeight.
func loopWeights(ops []microOp, n int) []uint64 {
	depth := make([]int32, n+1)
	for i := 0; i < n; i++ {
		code := ops[i].code
		if !isBranchCode(code) && code != uGOTO && code != uJAL {
			continue
		}
		if t := ops[i].aux; t >= 0 && int(t) <= i {
			depth[t]++
			depth[i+1]--
		}
	}
	w := make([]uint64, n)
	var d int32
	for i := 0; i < n; i++ {
		d += depth[i]
		if d > 0 {
			w[i] = fuseLoopWeight
		} else {
			w[i] = 1
		}
	}
	return w
}

// fuseAA maps specialized ALU+ALU pairs to their superinstruction.
var fuseAA = map[[2]uint8]uint8{
	{uSRLI, uSLLI}: uFSrliSlli,
	{uSLLI, uOR}:   uFSlliOr,
	{uANDI, uOR}:   uFAndiOr,
	{uXOR, uSLLI}:  uFXorSlli,
	{uOR, uADDI}:   uFOrAddi,
	{uLI, uORI}:    uFLuiOri,
	{uSRLI, uANDI}: uFSrliAndi,
	{uSLLI, uADD}:  uFSlliAdd,
	{uSRLI, uADD}:  uFSrliAdd,
	{uOR, uADD}:    uFOrAdd,
	{uAND, uADD}:   uFAndAdd,
	{uSLLI, uSLLI}: uFSlliSlli,
	{uOR, uOR}:     uFOrOr,
	{uAND, uSLTU}:  uFAndSltu,
	{uXOR, uADD}:   uFXorAdd,
	{uADD, uADDI}:  uFAddAddi,
	{uADDI, uADDI}: uFAddiAddi,
}

// singleExt packs a micro-op into the ext-slot operand form used by the
// second and later members of a fused group.
func singleExt(op *microOp) fusedExt {
	return fusedExt{op1: op.code, rd2: op.rd, rs3: op.rs1, rs4: op.rs2, imm2: op.imm}
}

// fuseAAA maps specialized ALU+ALU+ALU triples to their
// superinstruction. The three patterns are the shift/accumulate chains
// of the TSA sub-key loop, where each saved dispatch repeats 16×256
// times per packet.
var fuseAAA = map[[3]uint8]uint8{
	{uSRLI, uSLLI, uANDI}: uF3SrliSlliAndi,
	{uSLLI, uOR, uXOR}:    uF3SlliOrXor,
	{uSLLI, uOR, uADDI}:   uF3SlliOrAddi,
}

// isMiniALU reports whether code is in the small ALU subset the generic
// fused kinds can dispatch (the inner switch in the exec cases must
// cover exactly this set).
func isMiniALU(code uint8) bool {
	switch code {
	case uADD, uADDI, uAND, uANDI, uOR, uORI, uXOR, uSLLI, uSRLI, uLI:
		return true
	}
	return false
}

func isBranchCode(code uint8) bool { return code >= uBEQ && code <= uBGEU }

// normLoad classifies a load micro-op for fusion: ok, the plain
// component code (uLB..uLW), and the proven region. Only unchecked
// (proven) loads fuse: a checked load component would drag the full
// alignment/region fault paths into every fused case, and the size of
// those paths is what decides whether the compiler may keep inlining
// the page-cache accessors into the dispatch loop at all.
func normLoad(op *microOp) (ok bool, code, region uint8) {
	if op.code >= uULB && op.code <= uULW {
		return true, op.code - uULB + uLB, op.rs2
	}
	return false, 0, 0
}

// fusePair tries to fuse two adjacent same-block micro-ops into one
// superinstruction. Sequential semantics are preserved exactly: the
// first instruction's effects (including register writes) land before
// the second executes or faults, and a fault in the second half reports
// the second instruction's PC.
func fusePair(a, b *microOp) (microOp, fusedExt, bool) {
	f := microOp{rd: a.rd, rs1: a.rs1, rs2: a.rs2, imm: a.imm, aux: b.aux}
	x := fusedExt{op1: a.code, op2: b.code, rd2: b.rd, rs3: b.rs1, rs4: b.rs2, imm2: b.imm}
	if code, ok := fuseAA[[2]uint8{a.code, b.code}]; ok {
		f.code = code
		return f, x, true
	}
	aALU := isMiniALU(a.code)
	aLoad, aLC, aLR := normLoad(a)
	bLoad, bLC, bLR := normLoad(b)
	bUStore := b.code >= uUSB && b.code <= uUSW
	switch {
	case aALU && isBranchCode(b.code):
		switch {
		case a.code == uADDI && b.code == uBLT:
			f.code = uFAddiBlt
		case a.code == uAND && b.code == uBNE:
			f.code = uFAndBne
		default:
			f.code = uFAluBr
		}
		return f, x, true
	case a.code == uADDI && b.code == uJAL:
		f.code = uFAddiJal
		return f, x, true
	case aALU && bLoad:
		f.code, x.op2, x.rs4 = uFAluLd, bLC, bLR
		return f, x, true
	case aALU && bUStore:
		f.code, x.op2, x.rs4 = uFAluSt, b.code-uUSB+uSB, b.rs2
		return f, x, true
	case aLoad && isMiniALU(b.code):
		f.code, x.op1, f.rs2 = uFLdAlu, aLC, aLR
		return f, x, true
	case aLoad && isBranchCode(b.code):
		f.code, x.op1, f.rs2 = uFLdBr, aLC, aLR
		return f, x, true
	case aLoad && bLoad:
		f.code, x.op1, f.rs2 = uFLdLd, aLC, aLR
		x.op2, x.rs4 = bLC, bLR
		return f, x, true
	case aLoad && bUStore:
		f.code, x.op1, f.rs2 = uFLdSt, aLC, aLR
		x.op2, x.rs4 = b.code-uUSB+uSB, b.rs2
		return f, x, true
	}
	return microOp{}, fusedExt{}, false
}

// aluCode maps the register-register and register-immediate ALU opcodes
// to their micro-op codes (same dispatch, pre-masked operands).
var aluCode = map[isa.Opcode]uint8{
	isa.ADD: uADD, isa.SUB: uSUB, isa.AND: uAND, isa.OR: uOR, isa.XOR: uXOR,
	isa.SLL: uSLL, isa.SRL: uSRL, isa.SRA: uSRA, isa.SLT: uSLT, isa.SLTU: uSLTU,
	isa.MUL:  uMUL,
	isa.ADDI: uADDI, isa.ANDI: uANDI, isa.ORI: uORI, isa.XORI: uXORI,
	isa.SLLI: uSLLI, isa.SRLI: uSRLI, isa.SRAI: uSRAI, isa.SLTI: uSLTI,
	isa.SLTIU: uSLTIU,
}

var memCode = map[isa.Opcode]uint8{
	isa.LB: uLB, isa.LBU: uLBU, isa.LH: uLH, isa.LHU: uLHU, isa.LW: uLW,
	isa.SB: uSB, isa.SH: uSH, isa.SW: uSW,
}

var branchCode = map[isa.Opcode]uint8{
	isa.BEQ: uBEQ, isa.BNE: uBNE, isa.BLT: uBLT,
	isa.BGE: uBGE, isa.BLTU: uBLTU, isa.BGEU: uBGEU,
}

func translateOne(i int, in isa.Instruction, textBase uint32, n int) microOp {
	op := microOp{
		rd:  uint8(in.Rd) & 15,
		rs1: uint8(in.Rs1) & 15,
		rs2: uint8(in.Rs2) & 15,
		imm: uint32(in.Imm),
	}
	pc := textBase + uint32(i)*isa.WordSize
	switch {
	case aluCode[in.Op] != 0:
		if in.Rd == isa.Zero {
			return microOp{code: uNOP}
		}
		op.code = aluCode[in.Op]
	case in.Op == isa.LUI:
		if in.Rd == isa.Zero {
			return microOp{code: uNOP}
		}
		op.code = uLI
		op.imm = uint32(in.Imm) << 12
	case memCode[in.Op] != 0:
		op.code = memCode[in.Op]
	case branchCode[in.Op] != 0:
		op.code = branchCode[in.Op]
		op.imm = isa.WordSize + uint32(in.Imm)*isa.WordSize // byte offset from pc
		op.aux = staticTarget(pc+op.imm, textBase, n)
	case in.Op == isa.JAL:
		op.code = uJAL
		op.imm = isa.WordSize + uint32(in.Imm)*isa.WordSize
		op.aux = staticTarget(pc+op.imm, textBase, n)
	case in.Op == isa.JALR:
		op.code = uJALR
	case in.Op == isa.HALT:
		op.code = uHALT
	default:
		op.code = uBAD
	}
	return op
}

// staticTarget resolves a translation-time-known control transfer target
// to an instruction index, using the interpreter's exact uint32 wrapping
// semantics for the bounds test.
func staticTarget(target, textBase uint32, n int) int32 {
	if target == ReturnAddress {
		return auxReturn
	}
	off := target - textBase
	if off%isa.WordSize == 0 && off/isa.WordSize < uint32(n) {
		return int32(off / isa.WordSize)
	}
	return auxFault
}

// RunProgram executes the translated program starting at c.PC until the
// application halts, returns to ReturnAddress, faults, or exceeds
// maxSteps — the block-threaded equivalent of Run, with the identical
// observable contract: same final registers and memory, same step count,
// same stop reason, and the same fault kind, PC and address on every
// failure. p must have been translated from the text segment and base
// this CPU was created with.
//
// With a nil Tracer an untraced dispatch loop runs: no tracing branches,
// per-block step accounting, c.PC/c.packetWriteHigh updated only at run
// exit, and block entries plus checked memory ops counted into c.Entries
// when it is set. With a Tracer attached RunProgram is c.Run(maxSteps):
// the interpreter is the one source of per-instruction events, so a
// tracer sees the same event order on every engine.
func (c *CPU) RunProgram(p *Program, maxSteps uint64) (steps uint64, reason StopReason, err error) {
	if c.Tracer != nil {
		return c.Run(maxSteps)
	}
	if p.ext != nil && (c.Entries == nil || !c.Entries.plain) {
		return c.runFused(p, maxSteps)
	}
	return c.runFast(p, maxSteps)
}

// runFast is the untraced dispatch loop over the plain, fully checked
// body. Besides the block-entry and checked-op counts it records, on its
// cold stop paths, how far the block a run stopped inside got
// (EntryCounts.Cut), and it marks every access into the coverage word
// set of a plain-body entry record.
func (c *CPU) runFast(p *Program, maxSteps uint64) (steps uint64, reason StopReason, rerr error) {
	regs := &c.Regs
	layout := c.Layout
	ops := p.ops
	endAt := p.endAt
	textBase := p.textBase
	n := uint32(len(ops))
	pktHigh := c.packetWriteHigh
	ec := c.Entries
	pcv := c.PC // pending control-transfer target, when idx < 0
	idx := -1   // entry instruction index, when >= 0 (already validated in-text)
outer:
	for {
		if idx < 0 {
			// Slow entry: arbitrary PC (run start, JALR, out-of-text
			// static targets, fall-through past the end). The check order
			// matches the interpreter: return address, budget, fetch.
			if pcv == ReturnAddress {
				c.PC = pcv
				reason = StopReturn
				break outer
			}
			if steps >= maxSteps {
				c.PC = pcv
				rerr = &Fault{Kind: FaultStepLimit, PC: pcv}
				break outer
			}
			off := pcv - textBase
			if off%isa.WordSize != 0 || off/isa.WordSize >= n {
				c.PC = pcv
				rerr = &Fault{Kind: FaultBadFetch, PC: pcv}
				break outer
			}
			idx = int(off / isa.WordSize)
		} else if steps >= maxSteps {
			pc := textBase + uint32(idx)*isa.WordSize
			c.PC = pc
			rerr = &Fault{Kind: FaultStepLimit, PC: pc}
			break outer
		}

		if ec != nil {
			ec.enter(idx)
		}
		end := int(endAt[idx])
		if rem := maxSteps - steps; uint64(end-idx) > rem {
			// The budget expires mid-block: execute only the affordable
			// prefix; the re-entry check above raises the step-limit
			// fault at the exact instruction the interpreter would.
			end = idx + int(rem)
			ec.cut(idx, end)
		}
		if end > len(ops) {
			// Never taken (endAt values are block bounds); it teaches the
			// compiler end <= len(ops) so ops[j] below needs no bounds
			// check.
			end = len(ops)
		}
		pc := textBase + uint32(idx)*isa.WordSize
		for j := idx; j < end; j++ {
			op := &ops[j]
			switch op.code {
			case uNOP:
			case uADD:
				regs[op.rd&15] = regs[op.rs1&15] + regs[op.rs2&15]
			case uSUB:
				regs[op.rd&15] = regs[op.rs1&15] - regs[op.rs2&15]
			case uAND:
				regs[op.rd&15] = regs[op.rs1&15] & regs[op.rs2&15]
			case uOR:
				regs[op.rd&15] = regs[op.rs1&15] | regs[op.rs2&15]
			case uXOR:
				regs[op.rd&15] = regs[op.rs1&15] ^ regs[op.rs2&15]
			case uSLL:
				regs[op.rd&15] = regs[op.rs1&15] << (regs[op.rs2&15] & 31)
			case uSRL:
				regs[op.rd&15] = regs[op.rs1&15] >> (regs[op.rs2&15] & 31)
			case uSRA:
				regs[op.rd&15] = uint32(int32(regs[op.rs1&15]) >> (regs[op.rs2&15] & 31))
			case uSLT:
				regs[op.rd&15] = b2u(int32(regs[op.rs1&15]) < int32(regs[op.rs2&15]))
			case uSLTU:
				regs[op.rd&15] = b2u(regs[op.rs1&15] < regs[op.rs2&15])
			case uMUL:
				regs[op.rd&15] = regs[op.rs1&15] * regs[op.rs2&15]
			case uADDI:
				regs[op.rd&15] = regs[op.rs1&15] + op.imm
			case uANDI:
				regs[op.rd&15] = regs[op.rs1&15] & op.imm
			case uORI:
				regs[op.rd&15] = regs[op.rs1&15] | op.imm
			case uXORI:
				regs[op.rd&15] = regs[op.rs1&15] ^ op.imm
			case uSLLI:
				regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
			case uSRLI:
				regs[op.rd&15] = regs[op.rs1&15] >> (op.imm & 31)
			case uSRAI:
				regs[op.rd&15] = uint32(int32(regs[op.rs1&15]) >> (op.imm & 31))
			case uSLTI:
				regs[op.rd&15] = b2u(int32(regs[op.rs1&15]) < int32(op.imm))
			case uSLTIU:
				regs[op.rd&15] = b2u(regs[op.rs1&15] < op.imm)
			case uLI:
				regs[op.rd&15] = op.imm

			case uLB:
				addr := regs[op.rs1&15] + op.imm
				r := layout.Classify(addr)
				if r == RegionNone || r == RegionText {
					steps += uint64(j-idx) + 1
					ec.cut(idx, j+1)
					c.PC = pc
					rerr = &Fault{Kind: FaultUnmapped, PC: pc, Addr: addr}
					break outer
				}
				if ec != nil {
					ec.touch(r, false, addr)
				}
				if op.rd != 0 {
					regs[op.rd&15] = uint32(int32(int8(c.cachedRead8(addr))))
				}
			case uLBU:
				addr := regs[op.rs1&15] + op.imm
				r := layout.Classify(addr)
				if r == RegionNone || r == RegionText {
					steps += uint64(j-idx) + 1
					ec.cut(idx, j+1)
					c.PC = pc
					rerr = &Fault{Kind: FaultUnmapped, PC: pc, Addr: addr}
					break outer
				}
				if ec != nil {
					ec.touch(r, false, addr)
				}
				if op.rd != 0 {
					regs[op.rd&15] = uint32(c.cachedRead8(addr))
				}
			case uLH:
				addr := regs[op.rs1&15] + op.imm
				r, f := c.checkData(addr, 1, pc, layout)
				if f != nil {
					steps += uint64(j-idx) + 1
					ec.cut(idx, j+1)
					c.PC = pc
					rerr = f
					break outer
				}
				if ec != nil {
					ec.touch(r, false, addr)
				}
				if op.rd != 0 {
					regs[op.rd&15] = uint32(int32(int16(c.cachedRead16(addr))))
				}
			case uLHU:
				addr := regs[op.rs1&15] + op.imm
				r, f := c.checkData(addr, 1, pc, layout)
				if f != nil {
					steps += uint64(j-idx) + 1
					ec.cut(idx, j+1)
					c.PC = pc
					rerr = f
					break outer
				}
				if ec != nil {
					ec.touch(r, false, addr)
				}
				if op.rd != 0 {
					regs[op.rd&15] = uint32(c.cachedRead16(addr))
				}
			case uLW:
				addr := regs[op.rs1&15] + op.imm
				r, f := c.checkData(addr, 3, pc, layout)
				if f != nil {
					steps += uint64(j-idx) + 1
					ec.cut(idx, j+1)
					c.PC = pc
					rerr = f
					break outer
				}
				if ec != nil {
					ec.touch(r, false, addr)
				}
				if op.rd != 0 {
					regs[op.rd&15] = c.cachedRead32(addr)
				}

			case uSB:
				addr := regs[op.rs1&15] + op.imm
				region := layout.Classify(addr)
				if region == RegionText || region == RegionNone {
					steps += uint64(j-idx) + 1
					ec.cut(idx, j+1)
					c.PC = pc
					rerr = storeFault(region, pc, addr)
					break outer
				}
				if ec != nil {
					ec.touch(region, true, addr)
				}
				if region == RegionPacket && addr+1 > pktHigh {
					pktHigh = addr + 1
				}
				pg := c.cachedPage(addr)
				pg[addr&(pageSize-1)] = uint8(regs[op.rd&15])
			case uSH:
				addr := regs[op.rs1&15] + op.imm
				if addr&1 != 0 {
					steps += uint64(j-idx) + 1
					ec.cut(idx, j+1)
					c.PC = pc
					rerr = &Fault{Kind: FaultUnaligned, PC: pc, Addr: addr}
					break outer
				}
				region := layout.Classify(addr)
				if region == RegionText || region == RegionNone {
					steps += uint64(j-idx) + 1
					ec.cut(idx, j+1)
					c.PC = pc
					rerr = storeFault(region, pc, addr)
					break outer
				}
				if ec != nil {
					ec.touch(region, true, addr)
				}
				if region == RegionPacket && addr+2 > pktHigh {
					pktHigh = addr + 2
				}
				pg := c.cachedPage(addr)
				o := addr & (pageSize - 1)
				binary.LittleEndian.PutUint16(pg[o:o+2:o+2], uint16(regs[op.rd&15]))
			case uSW:
				addr := regs[op.rs1&15] + op.imm
				if addr&3 != 0 {
					steps += uint64(j-idx) + 1
					ec.cut(idx, j+1)
					c.PC = pc
					rerr = &Fault{Kind: FaultUnaligned, PC: pc, Addr: addr}
					break outer
				}
				region := layout.Classify(addr)
				if region == RegionText || region == RegionNone {
					steps += uint64(j-idx) + 1
					ec.cut(idx, j+1)
					c.PC = pc
					rerr = storeFault(region, pc, addr)
					break outer
				}
				if ec != nil {
					ec.touch(region, true, addr)
				}
				if region == RegionPacket && addr+4 > pktHigh {
					pktHigh = addr + 4
				}
				pg := c.cachedPage(addr)
				o := addr & (pageSize - 1)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[op.rd&15])

			case uBEQ:
				if regs[op.rs1&15] == regs[op.rs2&15] {
					steps += uint64(j-idx) + 1
					idx, pcv = branchTo(op, pc)
					continue outer
				}
			case uBNE:
				if regs[op.rs1&15] != regs[op.rs2&15] {
					steps += uint64(j-idx) + 1
					idx, pcv = branchTo(op, pc)
					continue outer
				}
			case uBLT:
				if int32(regs[op.rs1&15]) < int32(regs[op.rs2&15]) {
					steps += uint64(j-idx) + 1
					idx, pcv = branchTo(op, pc)
					continue outer
				}
			case uBGE:
				if int32(regs[op.rs1&15]) >= int32(regs[op.rs2&15]) {
					steps += uint64(j-idx) + 1
					idx, pcv = branchTo(op, pc)
					continue outer
				}
			case uBLTU:
				if regs[op.rs1&15] < regs[op.rs2&15] {
					steps += uint64(j-idx) + 1
					idx, pcv = branchTo(op, pc)
					continue outer
				}
			case uBGEU:
				if regs[op.rs1&15] >= regs[op.rs2&15] {
					steps += uint64(j-idx) + 1
					idx, pcv = branchTo(op, pc)
					continue outer
				}

			case uJAL:
				if op.rd != 0 {
					regs[op.rd&15] = pc + isa.WordSize
				}
				steps += uint64(j-idx) + 1
				idx, pcv = branchTo(op, pc)
				continue outer
			case uJALR:
				target := (regs[op.rs1&15] + op.imm) &^ 3
				if op.rd != 0 {
					regs[op.rd&15] = pc + isa.WordSize
				}
				steps += uint64(j-idx) + 1
				idx, pcv = -1, target
				continue outer

			case uHALT:
				steps += uint64(j-idx) + 1
				c.PC = pc
				reason = StopHalt
				break outer
			case uBAD:
				steps += uint64(j-idx) + 1
				ec.cut(idx, j+1)
				c.PC = pc
				rerr = &Fault{Kind: FaultBadInstr, PC: pc}
				break outer
			}
			pc += isa.WordSize
		}
		// Block body exhausted without a control transfer: either the
		// budget truncated it, the block was split by a following leader,
		// or execution ran past the last instruction. The re-entry checks
		// sort the three cases out (step limit / next block / bad fetch).
		steps += uint64(end - idx)
		if uint32(end) < n {
			idx = end
		} else {
			idx, pcv = -1, textBase+uint32(end)*isa.WordSize
		}
	}
	// The run-exit bookkeeping sits here, not in a defer: every stop
	// path breaks out of the loop, and a defer would cost each packet
	// a deferred-call record.
	c.steps += steps
	if pktHigh > c.packetWriteHigh {
		c.packetWriteHigh = pktHigh
	}
	return steps, reason, rerr
}

// runFused is the untraced dispatch loop for proof-guided programs
// (TranslateWithFacts): the plain loop plus unchecked memory micro-ops,
// uGOTO, and fused superinstructions. It is a separate copy of runFast
// rather than extra cases in it because the case count is hot real
// estate: every case body added to the plain loop pushed it toward the
// compiler's "big function" threshold and measurably slowed programs
// that never execute a single fused op.
func (c *CPU) runFused(p *Program, maxSteps uint64) (steps uint64, reason StopReason, rerr error) {
	regs := &c.Regs
	layout := c.Layout
	ops := p.fops
	plain := p.ops
	ext := p.ext
	endAt := p.endAt
	textBase := p.textBase
	n := uint32(len(ops))
	pktHigh := c.packetWriteHigh
	ec := c.Entries
	pcv := c.PC // pending control-transfer target, when idx < 0
	idx := -1   // entry instruction index, when >= 0 (already validated in-text)
outer:
	for {
		if idx < 0 {
			// Slow entry: arbitrary PC (run start, JALR, out-of-text
			// static targets, fall-through past the end). The check order
			// matches the interpreter: return address, budget, fetch.
			if pcv == ReturnAddress {
				c.PC = pcv
				reason = StopReturn
				break outer
			}
			if steps >= maxSteps {
				c.PC = pcv
				rerr = &Fault{Kind: FaultStepLimit, PC: pcv}
				break outer
			}
			off := pcv - textBase
			if off%isa.WordSize != 0 || off/isa.WordSize >= n {
				c.PC = pcv
				rerr = &Fault{Kind: FaultBadFetch, PC: pcv}
				break outer
			}
			idx = int(off / isa.WordSize)
		} else if steps >= maxSteps {
			pc := textBase + uint32(idx)*isa.WordSize
			c.PC = pc
			rerr = &Fault{Kind: FaultStepLimit, PC: pc}
			break outer
		}

		if ec != nil {
			ec.enter(idx)
		}
		body := ops
		end := int(endAt[idx])
		if rem := maxSteps - steps; uint64(end-idx) > rem {
			// The budget expires mid-block: execute only the affordable
			// prefix; the re-entry check above raises the step-limit
			// fault at the exact instruction the interpreter would. The
			// truncated pass runs the unfused body — a fused head at the
			// cut would execute one instruction past the budget.
			end = idx + int(rem)
			body = plain
		}
		if end > len(body) {
			// Never taken (endAt values are block bounds); it teaches the
			// compiler end <= len(body) so body[j] below needs no bounds
			// check.
			end = len(body)
		}
		if end > len(ext) {
			// Never taken either (ext parallels ops and fops); it teaches
			// the compiler end <= len(ext) so &ext[j] in the fused cases
			// needs no bounds check.
			end = len(ext)
		}
		pc := textBase + uint32(idx)*isa.WordSize
		for j := idx; j < end; j++ {
			op := &body[j]
			switch op.code {
			case uNOP:
			case uADD:
				regs[op.rd&15] = regs[op.rs1&15] + regs[op.rs2&15]
			case uSUB:
				regs[op.rd&15] = regs[op.rs1&15] - regs[op.rs2&15]
			case uAND:
				regs[op.rd&15] = regs[op.rs1&15] & regs[op.rs2&15]
			case uOR:
				regs[op.rd&15] = regs[op.rs1&15] | regs[op.rs2&15]
			case uXOR:
				regs[op.rd&15] = regs[op.rs1&15] ^ regs[op.rs2&15]
			case uSLL:
				regs[op.rd&15] = regs[op.rs1&15] << (regs[op.rs2&15] & 31)
			case uSRL:
				regs[op.rd&15] = regs[op.rs1&15] >> (regs[op.rs2&15] & 31)
			case uSRA:
				regs[op.rd&15] = uint32(int32(regs[op.rs1&15]) >> (regs[op.rs2&15] & 31))
			case uSLT:
				regs[op.rd&15] = b2u(int32(regs[op.rs1&15]) < int32(regs[op.rs2&15]))
			case uSLTU:
				regs[op.rd&15] = b2u(regs[op.rs1&15] < regs[op.rs2&15])
			case uMUL:
				regs[op.rd&15] = regs[op.rs1&15] * regs[op.rs2&15]
			case uADDI:
				regs[op.rd&15] = regs[op.rs1&15] + op.imm
			case uANDI:
				regs[op.rd&15] = regs[op.rs1&15] & op.imm
			case uORI:
				regs[op.rd&15] = regs[op.rs1&15] | op.imm
			case uXORI:
				regs[op.rd&15] = regs[op.rs1&15] ^ op.imm
			case uSLLI:
				regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
			case uSRLI:
				regs[op.rd&15] = regs[op.rs1&15] >> (op.imm & 31)
			case uSRAI:
				regs[op.rd&15] = uint32(int32(regs[op.rs1&15]) >> (op.imm & 31))
			case uSLTI:
				regs[op.rd&15] = b2u(int32(regs[op.rs1&15]) < int32(op.imm))
			case uSLTIU:
				regs[op.rd&15] = b2u(regs[op.rs1&15] < op.imm)
			case uLI:
				regs[op.rd&15] = op.imm

			case uLB:
				addr := regs[op.rs1&15] + op.imm
				r := layout.Classify(addr)
				if r == RegionNone || r == RegionText {
					steps += uint64(j-idx) + 1
					c.PC = pc
					rerr = &Fault{Kind: FaultUnmapped, PC: pc, Addr: addr}
					break outer
				}
				if ec != nil {
					ec.access(r, false)
				}
				if op.rd != 0 {
					regs[op.rd&15] = uint32(int32(int8(c.cachedRead8(addr))))
				}
			case uLBU:
				addr := regs[op.rs1&15] + op.imm
				r := layout.Classify(addr)
				if r == RegionNone || r == RegionText {
					steps += uint64(j-idx) + 1
					c.PC = pc
					rerr = &Fault{Kind: FaultUnmapped, PC: pc, Addr: addr}
					break outer
				}
				if ec != nil {
					ec.access(r, false)
				}
				if op.rd != 0 {
					regs[op.rd&15] = uint32(c.cachedRead8(addr))
				}
			case uLH:
				addr := regs[op.rs1&15] + op.imm
				r, f := c.checkData(addr, 1, pc, layout)
				if f != nil {
					steps += uint64(j-idx) + 1
					c.PC = pc
					rerr = f
					break outer
				}
				if ec != nil {
					ec.access(r, false)
				}
				if op.rd != 0 {
					regs[op.rd&15] = uint32(int32(int16(c.cachedRead16(addr))))
				}
			case uLHU:
				addr := regs[op.rs1&15] + op.imm
				r, f := c.checkData(addr, 1, pc, layout)
				if f != nil {
					steps += uint64(j-idx) + 1
					c.PC = pc
					rerr = f
					break outer
				}
				if ec != nil {
					ec.access(r, false)
				}
				if op.rd != 0 {
					regs[op.rd&15] = uint32(c.cachedRead16(addr))
				}
			case uLW:
				addr := regs[op.rs1&15] + op.imm
				r, f := c.checkData(addr, 3, pc, layout)
				if f != nil {
					steps += uint64(j-idx) + 1
					c.PC = pc
					rerr = f
					break outer
				}
				if ec != nil {
					ec.access(r, false)
				}
				if op.rd != 0 {
					regs[op.rd&15] = c.cachedRead32(addr)
				}

			case uSB:
				addr := regs[op.rs1&15] + op.imm
				region := layout.Classify(addr)
				if region == RegionText || region == RegionNone {
					steps += uint64(j-idx) + 1
					c.PC = pc
					rerr = storeFault(region, pc, addr)
					break outer
				}
				if ec != nil {
					ec.access(region, true)
				}
				if region == RegionPacket && addr+1 > pktHigh {
					pktHigh = addr + 1
				}
				pg := c.cachedPage(addr)
				pg[addr&(pageSize-1)] = uint8(regs[op.rd&15])
			case uSH:
				addr := regs[op.rs1&15] + op.imm
				if addr&1 != 0 {
					steps += uint64(j-idx) + 1
					c.PC = pc
					rerr = &Fault{Kind: FaultUnaligned, PC: pc, Addr: addr}
					break outer
				}
				region := layout.Classify(addr)
				if region == RegionText || region == RegionNone {
					steps += uint64(j-idx) + 1
					c.PC = pc
					rerr = storeFault(region, pc, addr)
					break outer
				}
				if ec != nil {
					ec.access(region, true)
				}
				if region == RegionPacket && addr+2 > pktHigh {
					pktHigh = addr + 2
				}
				pg := c.cachedPage(addr)
				o := addr & (pageSize - 1)
				binary.LittleEndian.PutUint16(pg[o:o+2:o+2], uint16(regs[op.rd&15]))
			case uSW:
				addr := regs[op.rs1&15] + op.imm
				if addr&3 != 0 {
					steps += uint64(j-idx) + 1
					c.PC = pc
					rerr = &Fault{Kind: FaultUnaligned, PC: pc, Addr: addr}
					break outer
				}
				region := layout.Classify(addr)
				if region == RegionText || region == RegionNone {
					steps += uint64(j-idx) + 1
					c.PC = pc
					rerr = storeFault(region, pc, addr)
					break outer
				}
				if ec != nil {
					ec.access(region, true)
				}
				if region == RegionPacket && addr+4 > pktHigh {
					pktHigh = addr + 4
				}
				pg := c.cachedPage(addr)
				o := addr & (pageSize - 1)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[op.rd&15])

			case uBEQ:
				if regs[op.rs1&15] == regs[op.rs2&15] {
					steps += uint64(j-idx) + 1
					idx, pcv = branchTo(op, pc)
					continue outer
				}
			case uBNE:
				if regs[op.rs1&15] != regs[op.rs2&15] {
					steps += uint64(j-idx) + 1
					idx, pcv = branchTo(op, pc)
					continue outer
				}
			case uBLT:
				if int32(regs[op.rs1&15]) < int32(regs[op.rs2&15]) {
					steps += uint64(j-idx) + 1
					idx, pcv = branchTo(op, pc)
					continue outer
				}
			case uBGE:
				if int32(regs[op.rs1&15]) >= int32(regs[op.rs2&15]) {
					steps += uint64(j-idx) + 1
					idx, pcv = branchTo(op, pc)
					continue outer
				}
			case uBLTU:
				if regs[op.rs1&15] < regs[op.rs2&15] {
					steps += uint64(j-idx) + 1
					idx, pcv = branchTo(op, pc)
					continue outer
				}
			case uBGEU:
				if regs[op.rs1&15] >= regs[op.rs2&15] {
					steps += uint64(j-idx) + 1
					idx, pcv = branchTo(op, pc)
					continue outer
				}

			case uJAL:
				if op.rd != 0 {
					regs[op.rd&15] = pc + isa.WordSize
				}
				steps += uint64(j-idx) + 1
				idx, pcv = branchTo(op, pc)
				continue outer
			case uJALR:
				target := (regs[op.rs1&15] + op.imm) &^ 3
				if op.rd != 0 {
					regs[op.rd&15] = pc + isa.WordSize
				}
				steps += uint64(j-idx) + 1
				idx, pcv = -1, target
				continue outer

			case uHALT:
				steps += uint64(j-idx) + 1
				c.PC = pc
				reason = StopHalt
				break outer
			case uBAD:
				steps += uint64(j-idx) + 1
				c.PC = pc
				rerr = &Fault{Kind: FaultBadInstr, PC: pc}
				break outer

			// Proof-guided micro-ops (emitted only by TranslateWithFacts;
			// the plain body run under budget truncation never contains
			// them). Unchecked memory ops run no alignment or region
			// check: the verifier proved both, and rs2 carries the proven
			// region for the page-cache slot. Proven loads with rd==zero
			// were folded to uNOP, so the write-back is unconditional.
			case uULB:
				regs[op.rd&15] = uint32(int32(int8(c.cachedRead8(regs[op.rs1&15] + op.imm))))
			case uULBU:
				regs[op.rd&15] = uint32(c.cachedRead8(regs[op.rs1&15] + op.imm))
			case uULH:
				regs[op.rd&15] = uint32(int32(int16(c.cachedRead16(regs[op.rs1&15] + op.imm))))
			case uULHU:
				regs[op.rd&15] = uint32(c.cachedRead16(regs[op.rs1&15] + op.imm))
			case uULW:
				regs[op.rd&15] = c.cachedRead32(regs[op.rs1&15] + op.imm)
			case uUSB:
				addr := regs[op.rs1&15] + op.imm
				r := Region(op.rs2)
				if r == RegionPacket && addr+1 > pktHigh {
					pktHigh = addr + 1
				}
				c.cachedPage(addr)[addr&(pageSize-1)] = uint8(regs[op.rd&15])
			case uUSH:
				addr := regs[op.rs1&15] + op.imm
				r := Region(op.rs2)
				if r == RegionPacket && addr+2 > pktHigh {
					pktHigh = addr + 2
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint16(pg[o:o+2:o+2], uint16(regs[op.rd&15]))
			case uUSW:
				addr := regs[op.rs1&15] + op.imm
				r := Region(op.rs2)
				if r == RegionPacket && addr+4 > pktHigh {
					pktHigh = addr + 4
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[op.rd&15])

			case uGOTO:
				steps += uint64(j-idx) + 1
				idx, pcv = branchTo(op, pc)
				continue outer

			// Specialized ALU+ALU superinstructions and loop latches: both
			// halves in one dispatch, strictly sequential so a pair writing
			// and then reading the same register behaves like the two
			// originals. These bodies are a few instructions each, so they
			// stay inline; the generic fused kinds (inner switches, memory
			// accesses) are outlined in execFused below to keep this loop
			// under the compiler's "big function" threshold.
			case uFSrliSlli:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] >> (op.imm & 31)
				regs[x.rd2&15] = regs[x.rs3&15] << (x.imm2 & 31)
				j++
				pc += isa.WordSize
			case uFSlliOr:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
				regs[x.rd2&15] = regs[x.rs3&15] | regs[x.rs4&15]
				j++
				pc += isa.WordSize
			case uFAndiOr:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] & op.imm
				regs[x.rd2&15] = regs[x.rs3&15] | regs[x.rs4&15]
				j++
				pc += isa.WordSize
			case uFXorSlli:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] ^ regs[op.rs2&15]
				regs[x.rd2&15] = regs[x.rs3&15] << (x.imm2 & 31)
				j++
				pc += isa.WordSize
			case uFOrAddi:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] | regs[op.rs2&15]
				regs[x.rd2&15] = regs[x.rs3&15] + x.imm2
				j++
				pc += isa.WordSize
			case uFLuiOri:
				x := &ext[j]
				regs[op.rd&15] = op.imm
				regs[x.rd2&15] = regs[x.rs3&15] | x.imm2
				j++
				pc += isa.WordSize
			case uFSrliAndi:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] >> (op.imm & 31)
				regs[x.rd2&15] = regs[x.rs3&15] & x.imm2
				j++
				pc += isa.WordSize
			case uFSlliAdd:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
				regs[x.rd2&15] = regs[x.rs3&15] + regs[x.rs4&15]
				j++
				pc += isa.WordSize
			case uFSrliAdd:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] >> (op.imm & 31)
				regs[x.rd2&15] = regs[x.rs3&15] + regs[x.rs4&15]
				j++
				pc += isa.WordSize
			case uFOrAdd:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] | regs[op.rs2&15]
				regs[x.rd2&15] = regs[x.rs3&15] + regs[x.rs4&15]
				j++
				pc += isa.WordSize
			case uFAndAdd:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] & regs[op.rs2&15]
				regs[x.rd2&15] = regs[x.rs3&15] + regs[x.rs4&15]
				j++
				pc += isa.WordSize
			case uFSlliSlli:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
				regs[x.rd2&15] = regs[x.rs3&15] << (x.imm2 & 31)
				j++
				pc += isa.WordSize
			case uFOrOr:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] | regs[op.rs2&15]
				regs[x.rd2&15] = regs[x.rs3&15] | regs[x.rs4&15]
				j++
				pc += isa.WordSize
			case uFAndSltu:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] & regs[op.rs2&15]
				regs[x.rd2&15] = b2u(regs[x.rs3&15] < regs[x.rs4&15])
				j++
				pc += isa.WordSize
			case uFXorAdd:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] ^ regs[op.rs2&15]
				regs[x.rd2&15] = regs[x.rs3&15] + regs[x.rs4&15]
				j++
				pc += isa.WordSize
			case uFAddAddi:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] + regs[op.rs2&15]
				regs[x.rd2&15] = regs[x.rs3&15] + x.imm2
				j++
				pc += isa.WordSize
			case uFAddiAddi:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] + op.imm
				regs[x.rd2&15] = regs[x.rs3&15] + x.imm2
				j++
				pc += isa.WordSize
			// Triples: third instruction in ext[j+1] (in bounds whenever a
			// triple head executes — all three slots share a block, so
			// j+2 < end <= len(ext)).
			case uF3SrliSlliAndi:
				x, y := &ext[j], &ext[j+1]
				regs[op.rd&15] = regs[op.rs1&15] >> (op.imm & 31)
				regs[x.rd2&15] = regs[x.rs3&15] << (x.imm2 & 31)
				regs[y.rd2&15] = regs[y.rs3&15] & y.imm2
				j += 2
				pc += 2 * isa.WordSize
			case uF3SlliOrXor:
				x, y := &ext[j], &ext[j+1]
				regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
				regs[x.rd2&15] = regs[x.rs3&15] | regs[x.rs4&15]
				regs[y.rd2&15] = regs[y.rs3&15] ^ regs[y.rs4&15]
				j += 2
				pc += 2 * isa.WordSize
			case uF3SlliOrAddi:
				x, y := &ext[j], &ext[j+1]
				regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
				regs[x.rd2&15] = regs[x.rs3&15] | regs[x.rs4&15]
				regs[y.rd2&15] = regs[y.rs3&15] + y.imm2
				j += 2
				pc += 2 * isa.WordSize
			case uF4SlliOrAddiBlt:
				x, y, z := &ext[j], &ext[j+1], &ext[j+2]
				regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
				regs[x.rd2&15] = regs[x.rs3&15] | regs[x.rs4&15]
				regs[y.rd2&15] = regs[y.rs3&15] + y.imm2
				if int32(regs[z.rs3&15]) < int32(regs[z.rs4&15]) {
					steps += uint64(j-idx) + 4
					idx, pcv = branchTo2(op.aux, z.imm2, pc+3*isa.WordSize)
					continue outer
				}
				j += 3
				pc += 3 * isa.WordSize
			case uF5SrliSlliAndiOrAdd:
				x, y, z, w := &ext[j], &ext[j+1], &ext[j+2], &ext[j+3]
				regs[op.rd&15] = regs[op.rs1&15] >> (op.imm & 31)
				regs[x.rd2&15] = regs[x.rs3&15] << (x.imm2 & 31)
				regs[y.rd2&15] = regs[y.rs3&15] & y.imm2
				regs[z.rd2&15] = regs[z.rs3&15] | regs[z.rs4&15]
				regs[w.rd2&15] = regs[w.rs3&15] + regs[w.rs4&15]
				j += 4
				pc += 4 * isa.WordSize
			case uF7SlliOrXorSlliOrAddiBlt:
				x1, x2, x3 := &ext[j], &ext[j+1], &ext[j+2]
				x4, x5, x6 := &ext[j+3], &ext[j+4], &ext[j+5]
				regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
				regs[x1.rd2&15] = regs[x1.rs3&15] | regs[x1.rs4&15]
				regs[x2.rd2&15] = regs[x2.rs3&15] ^ regs[x2.rs4&15]
				regs[x3.rd2&15] = regs[x3.rs3&15] << (x3.imm2 & 31)
				regs[x4.rd2&15] = regs[x4.rs3&15] | regs[x4.rs4&15]
				regs[x5.rd2&15] = regs[x5.rs3&15] + x5.imm2
				if int32(regs[x6.rs3&15]) < int32(regs[x6.rs4&15]) {
					steps += uint64(j-idx) + 7
					idx, pcv = branchTo2(op.aux, x6.imm2, pc+6*isa.WordSize)
					continue outer
				}
				j += 6
				pc += 6 * isa.WordSize
			case uFAddiBlt:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] + op.imm
				if int32(regs[x.rs3&15]) < int32(regs[x.rs4&15]) {
					steps += uint64(j-idx) + 2
					idx, pcv = branchTo2(op.aux, x.imm2, pc+isa.WordSize)
					continue outer
				}
				j++
				pc += isa.WordSize
			case uFAndBne:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] & regs[op.rs2&15]
				if regs[x.rs3&15] != regs[x.rs4&15] {
					steps += uint64(j-idx) + 2
					idx, pcv = branchTo2(op.aux, x.imm2, pc+isa.WordSize)
					continue outer
				}
				j++
				pc += isa.WordSize
			case uFAddiJal:
				x := &ext[j]
				regs[op.rd&15] = regs[op.rs1&15] + op.imm
				if x.rd2 != 0 {
					regs[x.rd2&15] = pc + 2*isa.WordSize
				}
				steps += uint64(j-idx) + 2
				idx, pcv = branchTo2(op.aux, x.imm2, pc+isa.WordSize)
				continue outer
			// Generic fused superinstructions (ALU/load x load/store/
			// branch): both architectural halves in one dispatch. The
			// bodies are outlined — folding their inner switches and
			// memory accesses into this switch blows the loop past the
			// compiler's "big function" threshold, which stops the
			// page-cache accessors inlining into the checked load/store
			// cases above and costs far more than the one call. A taken
			// fused branch charges both halves and resolves from the
			// second half's own PC (pc+4).
			case uFAluBr:
				x := &ext[j]
				if c.fusedAluBr(op, x, regs) {
					steps += uint64(j-idx) + 2
					idx, pcv = branchTo2(op.aux, x.imm2, pc+isa.WordSize)
					continue outer
				}
				j++
				pc += isa.WordSize
			case uFAluLd:
				c.fusedAluLd(op, &ext[j], regs)
				j++
				pc += isa.WordSize
			case uFAluSt:
				if hi := c.fusedAluSt(op, &ext[j], regs); hi > pktHigh {
					pktHigh = hi
				}
				j++
				pc += isa.WordSize
			case uFLdAlu:
				c.fusedLdAlu(op, &ext[j], regs)
				j++
				pc += isa.WordSize
			case uFLdBr:
				x := &ext[j]
				if c.fusedLdBr(op, x, regs) {
					steps += uint64(j-idx) + 2
					idx, pcv = branchTo2(op.aux, x.imm2, pc+isa.WordSize)
					continue outer
				}
				j++
				pc += isa.WordSize
			case uFLdLd:
				c.fusedLdLd(op, &ext[j], regs)
				j++
				pc += isa.WordSize
			case uFLdSt:
				if hi := c.fusedLdSt(op, &ext[j], regs); hi > pktHigh {
					pktHigh = hi
				}
				j++
				pc += isa.WordSize
			}
			pc += isa.WordSize
		}
		// Block body exhausted without a control transfer: either the
		// budget truncated it, the block was split by a following leader,
		// or execution ran past the last instruction. The re-entry checks
		// sort the three cases out (step limit / next block / bad fetch).
		steps += uint64(end - idx)
		if uint32(end) < n {
			idx = end
		} else {
			idx, pcv = -1, textBase+uint32(end)*isa.WordSize
		}
	}
	// Run-exit bookkeeping, as in runFast.
	c.steps += steps
	if pktHigh > c.packetWriteHigh {
		c.packetWriteHigh = pktHigh
	}
	return steps, reason, rerr
}

// Generic fused-pair bodies, outlined from runFused (see the comment at
// its generic-kind cases). Each is self-contained — the inner component
// switches are written out rather than shared so every body stays small
// enough for the page-cache accessors to inline into it, keeping a
// fused memory pair at exactly one call from the dispatch loop. Memory
// components are proven (unchecked), so none of these can fault. Fused
// stores return the packet high-water contribution (0 when the store is
// not to the packet region); the caller folds it into its watermark.

func branchTaken(code uint8, t1, t2 uint32) bool {
	switch code {
	case uBEQ:
		return t1 == t2
	case uBNE:
		return t1 != t2
	case uBLT:
		return int32(t1) < int32(t2)
	case uBGE:
		return int32(t1) >= int32(t2)
	case uBLTU:
		return t1 < t2
	default: // uBGEU
		return t1 >= t2
	}
}

func (c *CPU) fusedAluBr(op *microOp, x *fusedExt, regs *[16]uint32) bool {
	switch x.op1 {
	case uADD:
		regs[op.rd&15] = regs[op.rs1&15] + regs[op.rs2&15]
	case uADDI:
		regs[op.rd&15] = regs[op.rs1&15] + op.imm
	case uAND:
		regs[op.rd&15] = regs[op.rs1&15] & regs[op.rs2&15]
	case uANDI:
		regs[op.rd&15] = regs[op.rs1&15] & op.imm
	case uOR:
		regs[op.rd&15] = regs[op.rs1&15] | regs[op.rs2&15]
	case uORI:
		regs[op.rd&15] = regs[op.rs1&15] | op.imm
	case uXOR:
		regs[op.rd&15] = regs[op.rs1&15] ^ regs[op.rs2&15]
	case uSLLI:
		regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
	case uSRLI:
		regs[op.rd&15] = regs[op.rs1&15] >> (op.imm & 31)
	default: // uLI
		regs[op.rd&15] = op.imm
	}
	return branchTaken(x.op2, regs[x.rs3&15], regs[x.rs4&15])
}

func (c *CPU) fusedAluLd(op *microOp, x *fusedExt, regs *[16]uint32) {
	switch x.op1 {
	case uADD:
		regs[op.rd&15] = regs[op.rs1&15] + regs[op.rs2&15]
	case uADDI:
		regs[op.rd&15] = regs[op.rs1&15] + op.imm
	case uAND:
		regs[op.rd&15] = regs[op.rs1&15] & regs[op.rs2&15]
	case uANDI:
		regs[op.rd&15] = regs[op.rs1&15] & op.imm
	case uOR:
		regs[op.rd&15] = regs[op.rs1&15] | regs[op.rs2&15]
	case uORI:
		regs[op.rd&15] = regs[op.rs1&15] | op.imm
	case uXOR:
		regs[op.rd&15] = regs[op.rs1&15] ^ regs[op.rs2&15]
	case uSLLI:
		regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
	case uSRLI:
		regs[op.rd&15] = regs[op.rs1&15] >> (op.imm & 31)
	default: // uLI
		regs[op.rd&15] = op.imm
	}
	var v2 uint32
	switch x.op2 {
	case uLB:
		v2 = uint32(int32(int8(c.cachedRead8(regs[x.rs3&15] + x.imm2))))
	case uLBU:
		v2 = uint32(c.cachedRead8(regs[x.rs3&15] + x.imm2))
	case uLH:
		v2 = uint32(int32(int16(c.cachedRead16(regs[x.rs3&15] + x.imm2))))
	case uLHU:
		v2 = uint32(c.cachedRead16(regs[x.rs3&15] + x.imm2))
	default: // uLW
		v2 = c.cachedRead32(regs[x.rs3&15] + x.imm2)
	}
	if x.rd2 != 0 {
		regs[x.rd2&15] = v2
	}
}

func (c *CPU) fusedAluSt(op *microOp, x *fusedExt, regs *[16]uint32) (hi uint32) {
	switch x.op1 {
	case uADD:
		regs[op.rd&15] = regs[op.rs1&15] + regs[op.rs2&15]
	case uADDI:
		regs[op.rd&15] = regs[op.rs1&15] + op.imm
	case uAND:
		regs[op.rd&15] = regs[op.rs1&15] & regs[op.rs2&15]
	case uANDI:
		regs[op.rd&15] = regs[op.rs1&15] & op.imm
	case uOR:
		regs[op.rd&15] = regs[op.rs1&15] | regs[op.rs2&15]
	case uORI:
		regs[op.rd&15] = regs[op.rs1&15] | op.imm
	case uXOR:
		regs[op.rd&15] = regs[op.rs1&15] ^ regs[op.rs2&15]
	case uSLLI:
		regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
	case uSRLI:
		regs[op.rd&15] = regs[op.rs1&15] >> (op.imm & 31)
	default: // uLI
		regs[op.rd&15] = op.imm
	}
	addr := regs[x.rs3&15] + x.imm2
	r := Region(x.rs4)
	o := addr & (pageSize - 1)
	switch x.op2 {
	case uSB:
		if r == RegionPacket {
			hi = addr + 1
		}
		c.cachedPage(addr)[o] = uint8(regs[x.rd2&15])
	case uSH:
		if r == RegionPacket {
			hi = addr + 2
		}
		pg := c.cachedPage(addr)
		binary.LittleEndian.PutUint16(pg[o:o+2:o+2], uint16(regs[x.rd2&15]))
	default: // uSW
		if r == RegionPacket {
			hi = addr + 4
		}
		pg := c.cachedPage(addr)
		binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[x.rd2&15])
	}
	return hi
}

func (c *CPU) fusedLdAlu(op *microOp, x *fusedExt, regs *[16]uint32) {
	var v uint32
	switch x.op1 {
	case uLB:
		v = uint32(int32(int8(c.cachedRead8(regs[op.rs1&15] + op.imm))))
	case uLBU:
		v = uint32(c.cachedRead8(regs[op.rs1&15] + op.imm))
	case uLH:
		v = uint32(int32(int16(c.cachedRead16(regs[op.rs1&15] + op.imm))))
	case uLHU:
		v = uint32(c.cachedRead16(regs[op.rs1&15] + op.imm))
	default: // uLW
		v = c.cachedRead32(regs[op.rs1&15] + op.imm)
	}
	if op.rd != 0 {
		regs[op.rd&15] = v
	}
	switch x.op2 {
	case uADD:
		regs[x.rd2&15] = regs[x.rs3&15] + regs[x.rs4&15]
	case uADDI:
		regs[x.rd2&15] = regs[x.rs3&15] + x.imm2
	case uAND:
		regs[x.rd2&15] = regs[x.rs3&15] & regs[x.rs4&15]
	case uANDI:
		regs[x.rd2&15] = regs[x.rs3&15] & x.imm2
	case uOR:
		regs[x.rd2&15] = regs[x.rs3&15] | regs[x.rs4&15]
	case uORI:
		regs[x.rd2&15] = regs[x.rs3&15] | x.imm2
	case uXOR:
		regs[x.rd2&15] = regs[x.rs3&15] ^ regs[x.rs4&15]
	case uSLLI:
		regs[x.rd2&15] = regs[x.rs3&15] << (x.imm2 & 31)
	case uSRLI:
		regs[x.rd2&15] = regs[x.rs3&15] >> (x.imm2 & 31)
	default: // uLI
		regs[x.rd2&15] = x.imm2
	}
}

func (c *CPU) fusedLdBr(op *microOp, x *fusedExt, regs *[16]uint32) bool {
	var v uint32
	switch x.op1 {
	case uLB:
		v = uint32(int32(int8(c.cachedRead8(regs[op.rs1&15] + op.imm))))
	case uLBU:
		v = uint32(c.cachedRead8(regs[op.rs1&15] + op.imm))
	case uLH:
		v = uint32(int32(int16(c.cachedRead16(regs[op.rs1&15] + op.imm))))
	case uLHU:
		v = uint32(c.cachedRead16(regs[op.rs1&15] + op.imm))
	default: // uLW
		v = c.cachedRead32(regs[op.rs1&15] + op.imm)
	}
	if op.rd != 0 {
		regs[op.rd&15] = v
	}
	return branchTaken(x.op2, regs[x.rs3&15], regs[x.rs4&15])
}

func (c *CPU) fusedLdLd(op *microOp, x *fusedExt, regs *[16]uint32) {
	var v uint32
	switch x.op1 {
	case uLB:
		v = uint32(int32(int8(c.cachedRead8(regs[op.rs1&15] + op.imm))))
	case uLBU:
		v = uint32(c.cachedRead8(regs[op.rs1&15] + op.imm))
	case uLH:
		v = uint32(int32(int16(c.cachedRead16(regs[op.rs1&15] + op.imm))))
	case uLHU:
		v = uint32(c.cachedRead16(regs[op.rs1&15] + op.imm))
	default: // uLW
		v = c.cachedRead32(regs[op.rs1&15] + op.imm)
	}
	if op.rd != 0 {
		regs[op.rd&15] = v
	}
	var v2 uint32
	switch x.op2 {
	case uLB:
		v2 = uint32(int32(int8(c.cachedRead8(regs[x.rs3&15] + x.imm2))))
	case uLBU:
		v2 = uint32(c.cachedRead8(regs[x.rs3&15] + x.imm2))
	case uLH:
		v2 = uint32(int32(int16(c.cachedRead16(regs[x.rs3&15] + x.imm2))))
	case uLHU:
		v2 = uint32(c.cachedRead16(regs[x.rs3&15] + x.imm2))
	default: // uLW
		v2 = c.cachedRead32(regs[x.rs3&15] + x.imm2)
	}
	if x.rd2 != 0 {
		regs[x.rd2&15] = v2
	}
}

func (c *CPU) fusedLdSt(op *microOp, x *fusedExt, regs *[16]uint32) (hi uint32) {
	var v uint32
	switch x.op1 {
	case uLB:
		v = uint32(int32(int8(c.cachedRead8(regs[op.rs1&15] + op.imm))))
	case uLBU:
		v = uint32(c.cachedRead8(regs[op.rs1&15] + op.imm))
	case uLH:
		v = uint32(int32(int16(c.cachedRead16(regs[op.rs1&15] + op.imm))))
	case uLHU:
		v = uint32(c.cachedRead16(regs[op.rs1&15] + op.imm))
	default: // uLW
		v = c.cachedRead32(regs[op.rs1&15] + op.imm)
	}
	if op.rd != 0 {
		regs[op.rd&15] = v
	}
	addr := regs[x.rs3&15] + x.imm2
	r := Region(x.rs4)
	o := addr & (pageSize - 1)
	switch x.op2 {
	case uSB:
		if r == RegionPacket {
			hi = addr + 1
		}
		c.cachedPage(addr)[o] = uint8(regs[x.rd2&15])
	case uSH:
		if r == RegionPacket {
			hi = addr + 2
		}
		pg := c.cachedPage(addr)
		binary.LittleEndian.PutUint16(pg[o:o+2:o+2], uint16(regs[x.rd2&15]))
	default: // uSW
		if r == RegionPacket {
			hi = addr + 4
		}
		pg := c.cachedPage(addr)
		binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[x.rd2&15])
	}
	return hi
}

// branchTo turns a taken static control transfer into the next dispatch
// state: a validated instruction index for in-text targets, or a slow
// pending PC (idx -1) for ReturnAddress and out-of-text targets.
func branchTo(op *microOp, pc uint32) (idx int, pcv uint32) {
	if op.aux >= 0 {
		return int(op.aux), 0
	}
	if op.aux == auxReturn {
		return -1, ReturnAddress
	}
	return -1, pc + op.imm
}

// branchTo2 is branchTo for the second half of a fused pair: the target
// index lives in the head's aux as usual, but the byte offset lives in
// the ext bank's imm2 and bpc is the branch's own PC (the fused head's
// pc + 4).
func branchTo2(aux int32, imm2, bpc uint32) (idx int, pcv uint32) {
	if aux >= 0 {
		return int(aux), 0
	}
	if aux == auxReturn {
		return -1, ReturnAddress
	}
	return -1, bpc + imm2
}

// storeFault builds the interpreter's store fault for a text/unmapped
// region.
func storeFault(region Region, pc, addr uint32) *Fault {
	if region == RegionText {
		return &Fault{Kind: FaultTextWrite, PC: pc, Addr: addr}
	}
	return &Fault{Kind: FaultUnmapped, PC: pc, Addr: addr}
}

// checkData performs the alignment and region checks shared by the
// halfword/word loads: mask is size-1. The classified region is
// returned so the caller can pick the matching page-cache slot.
func (c *CPU) checkData(addr, mask, pc uint32, layout Layout) (Region, *Fault) {
	if addr&mask != 0 {
		return RegionNone, &Fault{Kind: FaultUnaligned, PC: pc, Addr: addr}
	}
	r := layout.Classify(addr)
	if r == RegionNone || r == RegionText {
		return r, &Fault{Kind: FaultUnmapped, PC: pc, Addr: addr}
	}
	return r, nil
}

// Direct-mapped last-page cache --------------------------------------------

// cachedRead8 reads one byte through the last-page cache, direct-mapped
// by the page index's low bits. A page, once allocated, is never
// replaced or freed, so a cached pointer stays valid for the CPU's
// lifetime; pages never seen non-nil are not cached, because a later
// host write could allocate them.
func (c *CPU) cachedRead8(addr uint32) uint8 {
	pidx := addr >> pageBits
	s := (pidx * 2654435761) >> 27 // top 5 bits of a Fibonacci hash
	p := c.pageCache[s]
	if p == nil || c.pageCacheIdx[s] != pidx {
		if p = c.Mem.pages[pidx]; p == nil {
			return 0
		}
		c.pageCache[s], c.pageCacheIdx[s] = p, pidx
	}
	return p[addr&(pageSize-1)]
}

// cachedRead16 reads an aligned little-endian halfword through the cache.
func (c *CPU) cachedRead16(addr uint32) uint16 {
	pidx := addr >> pageBits
	s := (pidx * 2654435761) >> 27 // top 5 bits of a Fibonacci hash
	p := c.pageCache[s]
	if p == nil || c.pageCacheIdx[s] != pidx {
		if p = c.Mem.pages[pidx]; p == nil {
			return 0
		}
		c.pageCache[s], c.pageCacheIdx[s] = p, pidx
	}
	o := addr & (pageSize - 1)
	return binary.LittleEndian.Uint16(p[o : o+2 : o+2])
}

// cachedRead32 reads an aligned little-endian word through the cache.
func (c *CPU) cachedRead32(addr uint32) uint32 {
	pidx := addr >> pageBits
	s := (pidx * 2654435761) >> 27 // top 5 bits of a Fibonacci hash
	p := c.pageCache[s]
	if p == nil || c.pageCacheIdx[s] != pidx {
		if p = c.Mem.pages[pidx]; p == nil {
			return 0
		}
		c.pageCache[s], c.pageCacheIdx[s] = p, pidx
	}
	o := addr & (pageSize - 1)
	return binary.LittleEndian.Uint32(p[o : o+4 : o+4])
}

// cachedPage returns the (allocated) page containing addr through the
// cache, for stores.
func (c *CPU) cachedPage(addr uint32) *page {
	pidx := addr >> pageBits
	s := (pidx * 2654435761) >> 27 // top 5 bits of a Fibonacci hash
	if p := c.pageCache[s]; p != nil && c.pageCacheIdx[s] == pidx {
		return p
	}
	p := c.Mem.pageFor(addr)
	c.pageCache[s], c.pageCacheIdx[s] = p, pidx
	return p
}
