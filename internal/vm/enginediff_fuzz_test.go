package vm_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

// FuzzEngineDiff is the differential fuzzer behind the engine-equivalence
// contract: arbitrary instruction streams (the FuzzVM input encoding) run
// through the reference interpreter and the block-threaded engine. The
// machine state must be bit-identical (vm.CheckEngineDiff), and so must
// the statistics record: the
// interpreter's per-instruction collector record against the
// block-summary record of each untraced loop (the plain vm.Translate
// body for runFast, the vm.TranslateWithFacts body for runFused when its
// fusion is kept), and the run-wide coverage footprint and per-PC counts
// of a plain-body summary run. CI runs this as a short -fuzz smoke.
func FuzzEngineDiff(f *testing.F) {
	f.Add([]byte{byte(isa.HALT), 0, 0, 0, 0, 0})
	// The TSA sub-key walk shape: the srli/slli/andi/or/add bit-extract
	// chain, a checked table load, and the slli/or/xor/slli/or/addi/blt
	// tail — the exact sequences the translator fuses into its 5-wide
	// and 7-wide superinstructions, with the loop latch taken four times
	// and then falling through to a return.
	f.Add(seedProg(
		isa.Instruction{Op: isa.ORI, Rd: 10, Rs1: isa.Zero, Imm: 4},
		isa.Instruction{Op: isa.SRLI, Rd: 4, Rs1: 5, Imm: 31},
		isa.Instruction{Op: isa.SLLI, Rd: 5, Rs1: 5, Imm: 1},
		isa.Instruction{Op: isa.ANDI, Rd: 6, Rs1: 7, Imm: 0xFF},
		isa.Instruction{Op: isa.OR, Rd: 6, Rs1: 6, Rs2: 8},
		isa.Instruction{Op: isa.ADD, Rd: 6, Rs1: 6, Rs2: 1},
		isa.Instruction{Op: isa.LBU, Rd: 6, Rs1: 6, Imm: 0},
		isa.Instruction{Op: isa.SLLI, Rd: 7, Rs1: 7, Imm: 1},
		isa.Instruction{Op: isa.OR, Rd: 7, Rs1: 7, Rs2: 4},
		isa.Instruction{Op: isa.XOR, Rd: 4, Rs1: 4, Rs2: 6},
		isa.Instruction{Op: isa.SLLI, Rd: 9, Rs1: 9, Imm: 1},
		isa.Instruction{Op: isa.OR, Rd: 9, Rs1: 9, Rs2: 4},
		isa.Instruction{Op: isa.ADDI, Rd: 8, Rs1: 8, Imm: 1},
		isa.Instruction{Op: isa.BLT, Rs1: 8, Rs2: 10, Imm: -13},
		isa.Instruction{Op: isa.JALR, Rs1: 15},
	))
	// LUI+ORI constant build and ADDI+JAL call setup (uFLuiOri and
	// uFAddiJal), then AND+BNE (uFAndBne) on the return path.
	f.Add(seedProg(
		isa.Instruction{Op: isa.LUI, Rd: 4, Imm: 5},
		isa.Instruction{Op: isa.ORI, Rd: 4, Rs1: 4, Imm: 0x41},
		isa.Instruction{Op: isa.ADDI, Rd: 5, Rs1: 4, Imm: 1},
		isa.Instruction{Op: isa.JAL, Rd: 15, Imm: 1},
		isa.Instruction{Op: isa.HALT},
		isa.Instruction{Op: isa.AND, Rd: 6, Rs1: 4, Rs2: 5},
		isa.Instruction{Op: isa.BNE, Rs1: 6, Rs2: isa.Zero, Imm: 0},
		isa.Instruction{Op: isa.JALR, Rs1: 15},
	))
	// Boundary-straddling memory: a word load crossing a 4 KiB page
	// inside the packet region, a halfword at an odd address (alignment
	// fault path), and a store one byte short of the region end.
	f.Add(seedProg(
		isa.Instruction{Op: isa.LW, Rd: 4, Rs1: 1, Imm: 4094},
		isa.Instruction{Op: isa.LH, Rd: 5, Rs1: 1, Imm: 3},
		isa.Instruction{Op: isa.SB, Rd: 4, Rs1: 1, Imm: 255},
		isa.Instruction{Op: isa.JALR, Rs1: 15},
	))
	// Off-by-one control flow: a branch targeting the program's last
	// instruction and a branch falling off the end of text.
	f.Add(seedProg(
		isa.Instruction{Op: isa.BEQ, Rs1: isa.Zero, Rs2: isa.Zero, Imm: 1},
		isa.Instruction{Op: isa.ADDI, Rd: 4, Rs1: 4, Imm: 1},
		isa.Instruction{Op: isa.BGE, Rs1: 4, Rs2: isa.Zero, Imm: 1},
	))
	f.Add([]byte{
		byte(isa.ADDI), 4, 0, 0, 10, 0,
		byte(isa.ADDI), 4, 4, 0, 0xFF, 0xFF,
		byte(isa.BNE), 0, 4, 0, 0xFF, 0xFF,
		byte(isa.JALR), 0, 15, 0, 0, 0,
	})
	f.Add([]byte{
		byte(isa.LW), 4, 1, 0, 0, 0,
		byte(isa.SW), 4, 3, 0, 4, 0,
		byte(isa.SB), 4, 1, 0, 200, 0,
		byte(isa.JAL), 15, 0, 0, 0xFC, 0xFF,
	})
	f.Add([]byte{255, 255, 255, 255, 255, 255})
	// A byte load from unmapped memory in the middle of a block: the
	// coverage of a faulted run includes the block's executed prefix up
	// to and including the faulting instruction.
	f.Add(seedProg(
		isa.Instruction{Op: isa.ADDI, Rd: 4, Rs1: 1, Imm: 8},
		isa.Instruction{Op: isa.LBU, Rd: 5, Rs1: 1, Imm: 0},
		isa.Instruction{Op: isa.LB, Rd: 6, Rs1: isa.Zero, Imm: 16},
		isa.Instruction{Op: isa.JALR, Rs1: 15},
	))
	f.Fuzz(func(t *testing.T, b []byte) {
		text := vm.DecodeFuzzProg(b)
		if text == nil {
			t.Skip()
		}
		vm.CheckEngineDiff(t, text)

		blocks := analysis.NewBlockMap(text, vm.FuzzTextBase)
		want := fuzzRecord(t, text, blocks, nil, true)
		for _, p := range []*vm.Program{
			vm.Translate(text, vm.FuzzTextBase, blocks),
			vm.TranslateWithFacts(text, vm.FuzzTextBase, blocks, nil),
		} {
			if got := fuzzRecord(t, text, blocks, p, false); !reflect.DeepEqual(want.Record, got.Record) {
				t.Fatalf("records differ (fused body %v):\n  interp    %+v\n  summaries %+v", p.Fused(), want.Record, got.Record)
			}
			if got := fuzzRecord(t, text, blocks, p, true); !reflect.DeepEqual(want, got) {
				t.Fatalf("coverage run differs (fused body %v):\n  interp    %+v\n  summaries %+v", p.Fused(), want, got)
			}
		}
	})
}

// fuzzStats is what one run leaves in the collector: the packet record
// and, for a coverage run, the run-wide footprint and per-PC counts.
type fuzzStats struct {
	Record                    stats.PacketRecord
	InstrMem, DataMem, PktMem int
	PCCounts                  []uint64
}

// fuzzRecord runs text once, the way the run engine processes a packet,
// and returns what the collector derived: from per-instruction events on
// the interpreter when p is nil, else from block summaries on p's
// untraced loop. runWide enables coverage and per-PC counts. A faulted
// run yields the quarantine record.
func fuzzRecord(t *testing.T, text []isa.Instruction, blocks *analysis.BlockMap, p *vm.Program, runWide bool) fuzzStats {
	t.Helper()
	layout := vm.TestLayout(vm.FuzzTextBase, len(text))
	cpu := vm.New(text, vm.FuzzTextBase, vm.NewMemory())
	cpu.Layout = layout
	vm.FuzzSeedRegs(cpu)
	cpu.PC = vm.FuzzTextBase
	col := stats.NewCollector(text, vm.FuzzTextBase, blocks, layout)
	col.Coverage, col.CountPCs = runWide, runWide
	if p == nil {
		cpu.Tracer = col
	} else {
		e := vm.NewEntryCounts(p)
		cpu.Entries = e
		col.UseSummaries(e)
	}
	col.BeginPacket()
	var err error
	if p == nil {
		_, _, err = cpu.Run(vm.FuzzMaxSteps)
	} else {
		_, _, err = cpu.RunProgram(p, vm.FuzzMaxSteps)
	}
	var s fuzzStats
	if err != nil {
		var f *vm.Fault
		if !errors.As(err, &f) {
			t.Fatalf("non-Fault error: %v", err)
		}
		s.Record = col.AbortPacket(f.Kind)
	} else {
		s.Record = col.EndPacket()
	}
	if runWide {
		s.InstrMem, s.DataMem, s.PktMem = col.InstrMemSize(), col.DataMemSize(), col.PacketMemSize()
		s.PCCounts = col.PCCounts
	}
	return s
}

// seedProg encodes instructions in the fuzzers' 6-byte wire form, for
// seeding structured idioms (fusion patterns, boundary accesses) that
// random mutation is slow to discover.
func seedProg(ins ...isa.Instruction) []byte {
	b := make([]byte, 0, len(ins)*6)
	for _, in := range ins {
		b = append(b, byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2),
			byte(uint16(in.Imm)), byte(uint16(in.Imm)>>8))
	}
	return b
}
