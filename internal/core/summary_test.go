package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/packet"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// summaryLoops are the two untraced loops a records-mode run on the
// threaded engine can take: NoVerify loads the fully-checked vm.Translate
// body (runFast), a verified program the proof-guided
// vm.TranslateWithFacts body (runFused).
var summaryLoops = []struct {
	name     string
	noVerify bool
	loop     core.Loop
}{
	{"fast", true, core.LoopFast},
	{"fused", false, core.LoopFused},
}

// summaryMode is a statistics mode block summaries serve, with the reason
// Bench.Loop reports for it: records mode runs the build's own untraced
// loop; the run-wide outputs — Table IV coverage and per-PC counts — run
// the plain loop.
type summaryMode struct {
	name               string
	coverage, countPCs bool
	why                string
}

var summaryModes = []summaryMode{
	{"records", false, false, core.ReasonRecords},
	{"coverage", true, false, core.ReasonCoverage},
	{"countpcs", false, true, core.ReasonCountPCs},
	{"coverage+countpcs", true, true, core.ReasonCoverage},
}

// loop is the loop a threaded bench runs in mode m when records mode
// runs own.
func (m summaryMode) loop(own core.Loop) core.Loop {
	if m.coverage || m.countPCs {
		return core.LoopFast
	}
	return own
}

// forEachMode runs f as one subtest per summary mode.
func forEachMode(t *testing.T, f func(t *testing.T, m summaryMode)) {
	t.Helper()
	for _, m := range summaryModes {
		t.Run(m.name, func(t *testing.T) { f(t, m) })
	}
}

// pair is oraclePair with the mode armed on both benches.
func (m summaryMode) pair(t *testing.T, app func() *core.App, opts core.Options) (oracle, got *core.Bench) {
	t.Helper()
	opts.Coverage = m.coverage
	oracle, got = oraclePair(t, app, opts)
	oracle.Collector().CountPCs = m.countPCs
	got.Collector().CountPCs = m.countPCs
	return oracle, got
}

// oraclePair builds the oracle — the interpreter with the per-instruction
// collector — and a bench on opts.Engine (threaded unless set) for the
// same app, both quarantining faults (SkipAndRecord unless opts asks for
// Retry) so faulted records are compared too.
func oraclePair(t *testing.T, app func() *core.App, opts core.Options) (oracle, got *core.Bench) {
	t.Helper()
	if opts.Errors.Policy != core.Retry {
		opts.Errors = core.ErrorPolicy{Policy: core.SkipAndRecord}
	}
	o := opts
	o.Engine = core.EngineInterpreter
	oracle, err := core.New(app(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Engine = opts.Engine
	got, err = core.New(app(), o)
	if err != nil {
		t.Fatal(err)
	}
	return oracle, got
}

// requireOracleRecords runs pkts on both benches and requires identical
// results — verdicts, faults, DeepEqual records (Fault and Blocks
// included), the packet buffer after each packet, and the run-wide
// outputs the oracle collects — and that the threaded bench ran on
// wantLoop from block summaries, for reason why. It returns the threaded
// bench's records.
func requireOracleRecords(t *testing.T, oracle, got *core.Bench, pkts []*trace.Packet, wantLoop core.Loop, why string) []stats.PacketRecord {
	t.Helper()
	var wantRecs, gotRecs []stats.PacketRecord
	for i, p := range pkts {
		want, werr := oracle.ProcessPacket(p)
		res, gerr := got.ProcessPacket(p)
		if werr != nil || gerr != nil {
			t.Fatalf("packet %d: errors under a skip policy: oracle %v, threaded %v", i, werr, gerr)
		}
		if !reflect.DeepEqual(want.Fault, res.Fault) {
			t.Fatalf("packet %d: fault: oracle %+v, threaded %+v", i, want.Fault, res.Fault)
		}
		if want.Verdict != res.Verdict {
			t.Fatalf("packet %d: verdict: oracle %d, threaded %d", i, want.Verdict, res.Verdict)
		}
		if !reflect.DeepEqual(want.Record, res.Record) {
			t.Fatalf("packet %d: record differs:\n  oracle   %+v\n  threaded %+v", i, want.Record, res.Record)
		}
		if !bytes.Equal(oracle.PacketBytes(len(p.Data)), got.PacketBytes(len(p.Data))) {
			t.Fatalf("packet %d: packet buffer differs after processing", i)
		}
		wantRecs, gotRecs = append(wantRecs, want.Record), append(gotRecs, res.Record)
	}
	requireOracleRunWide(t, oracle, got, wantRecs, gotRecs)
	if loop, gotWhy := got.Loop(); loop != wantLoop || gotWhy != why {
		t.Errorf("threaded bench ran %v (%s), want %v (%s) from block summaries", loop, gotWhy, wantLoop, why)
	}
	if loop, _ := oracle.Loop(); loop != core.LoopInterp {
		t.Errorf("oracle ran %v, want the interpreter", loop)
	}
	return gotRecs
}

// requireOracleRunWide requires the run-wide outputs the oracle collects
// — coverage sizes and the coverage curve over the two benches' records,
// per-PC counts — to match exactly, and to be non-empty so the
// comparison means something.
func requireOracleRunWide(t *testing.T, oracle, got *core.Bench, wantRecs, gotRecs []stats.PacketRecord) {
	t.Helper()
	oc, gc := oracle.Collector(), got.Collector()
	if oc.Coverage {
		for _, sz := range []struct {
			name       string
			want, have int
		}{
			{"instruction", oc.InstrMemSize(), gc.InstrMemSize()},
			{"data", oc.DataMemSize(), gc.DataMemSize()},
			{"packet", oc.PacketMemSize(), gc.PacketMemSize()},
		} {
			if sz.want != sz.have {
				t.Errorf("%s memory coverage: oracle %d bytes, threaded %d", sz.name, sz.want, sz.have)
			}
		}
		if oc.InstrMemSize() == 0 {
			t.Error("oracle covered no instructions")
		}
		n := oracle.BlockMap().NumBlocks()
		want := analysis.CoverageCurve(stats.BlockSets(wantRecs), n)
		if have := analysis.CoverageCurve(stats.BlockSets(gotRecs), n); !reflect.DeepEqual(want, have) {
			t.Error("coverage curves differ")
		}
	}
	if oc.CountPCs {
		if !reflect.DeepEqual(oc.PCCounts, gc.PCCounts) {
			t.Errorf("PCCounts differ:\n  oracle   %v\n  threaded %v", oc.PCCounts, gc.PCCounts)
		}
		var sum uint64
		for _, n := range oc.PCCounts {
			sum += n
		}
		if sum == 0 {
			t.Error("oracle counted no instructions")
		}
	}
}

// genPackets generates n packets of a trace profile.
func genPackets(t *testing.T, profile string, n int) []*trace.Packet {
	t.Helper()
	prof, err := gen.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Generate(prof, n)
}

// TestBlockSummaryOracle is the block-summary statistics contract: on
// every bundled application, over generated MRA, DCWEB and LAN traces,
// in every mode summaries serve and on both builds, the records, coverage
// and per-PC counts a run derives from block-entry counts and load-time
// summaries equal the interpreter's per-instruction ones exactly. The
// compiled engine, whose chains carry no summaries, takes the threaded
// engine's summary loops with statistics on and is held to the same
// contract.
func TestBlockSummaryOracle(t *testing.T) {
	pkts := append(mixedSizePackets(t, 30), genPackets(t, "DCWEB", 40)...)
	pkts = append(pkts, genPackets(t, "LAN", 40)...)
	var dsts []uint32
	for _, p := range pkts {
		if h, err := packet.ParseIPv4(p.Data); err == nil {
			dsts = append(dsts, h.Dst)
		}
	}
	tbl := route.TableFromTraffic(dsts, 1024, 16, 1)
	cases := []struct {
		name string
		app  func() *core.App
	}{
		{"radix", func() *core.App { return apps.IPv4Radix(tbl) }},
		{"trie", func() *core.App { return apps.IPv4Trie(tbl) }},
		{"flow", func() *core.App { return apps.FlowClassification(64) }},
		{"tsa", func() *core.App { return apps.TSAApp(0x5453412D31363A31) }},
		{"payload-scan", func() *core.App { return apps.PayloadScan([4]byte{0xDE, 0xAD, 0xBE, 0xEF}) }},
		{"frag", func() *core.App { return apps.Frag(576) }},
	}
	for _, tc := range cases {
		for _, l := range summaryLoops {
			t.Run(tc.name+"/"+l.name, func(t *testing.T) {
				forEachMode(t, func(t *testing.T, m summaryMode) {
					oracle, got := m.pair(t, tc.app, core.Options{NoVerify: l.noVerify})
					requireOracleRecords(t, oracle, got, pkts, m.loop(l.loop), m.why)
					if !oracle.Memory().Equal(got.Memory()) {
						t.Error("final memory images differ")
					}
				})
			})
		}
		t.Run(tc.name+"/compiled", func(t *testing.T) {
			forEachMode(t, func(t *testing.T, m summaryMode) {
				oracle, got := m.pair(t, tc.app, core.Options{Engine: core.EngineCompiled})
				requireOracleRecords(t, oracle, got, pkts, m.loop(core.LoopFused), m.why)
			})
		})
	}
}

// summarySrc mixes proven and checked memory ops across multi-instruction
// blocks: a data-dependent loop (byte 2 of the packet) of stack
// store/reload rounds, then a word load at packet base + byte 1 << 16,
// which the verifier cannot prove and which faults unless byte 1 is 0.
const summarySrc = `
	.text
	.global s
s:
	lbu  t0, 2(a0)
	mv   t1, zero
	lbu  t2, 3(a0)
loop:
	beq  t0, zero, done
	add  t1, t1, t2
	sw   t1, -4(sp)
	lw   t3, -4(sp)
	xor  t1, t1, t3
	addi t0, t0, -1
	j    loop
done:
	lbu  t4, 1(a0)
	slli t4, t4, 16
	add  t4, a0, t4
	lw   a2, 0(t4)
	add  a0, t1, a2
	ret
`

func summaryApp() *core.App { return &core.App{Name: "summary", Source: summarySrc, Entry: "s"} }

// summaryPackets: clean packets with loop counts 2, 0 and 5, then a
// faulting one, then a clean one again — an aborted packet must not leak
// entry counts into the next record.
func summaryPackets() []*trace.Packet {
	var pkts []*trace.Packet
	for _, c := range []struct{ loops, fault byte }{{2, 0}, {0, 0}, {5, 0}, {3, 1}, {4, 0}} {
		data := make([]byte, 40)
		data[0] = 0x45
		data[1] = c.fault
		data[2] = c.loops
		data[3] = 7
		pkts = append(pkts, &trace.Packet{Data: data})
	}
	return pkts
}

// TestBlockSummaryFaults covers faulting programs: every packet's record
// — quarantine markers included — and the run-wide coverage and per-PC
// counts, which keep what faulted runs executed, must match the oracle in
// every summary mode, under SkipAndRecord and under Retry (whose failed
// attempts count too), for programs that always fault (loaded with
// NoVerify, which only the fast loop runs) and for one that faults on
// some packets only.
func TestBlockSummaryFaults(t *testing.T) {
	pkts := append(summaryPackets(), mixedSizePackets(t, 2)...)
	always := []string{
		"e:\nlw a0, 0(zero)\nret",
		"e:\naddi t0, a0, 1\nlw a1, 0(t0)\nret",
		"e:\nla t0, e\nsw a0, 0(t0)\nret",
		"e:\naddi t0, a1, 8\njr t0",
		"e:\naddi a0, zero, 7",
	}
	policies := []core.ErrorPolicy{
		{Policy: core.SkipAndRecord},
		{Policy: core.Retry, MaxAttempts: 3},
	}
	t.Run("always", func(t *testing.T) {
		forEachMode(t, func(t *testing.T, m summaryMode) {
			for _, pol := range policies {
				for i, src := range always {
					app := func() *core.App { return &core.App{Name: "fault", Source: src, Entry: "e"} }
					oracle, got := m.pair(t, app, core.Options{NoVerify: true, StepLimit: 10_000, Errors: pol})
					requireOracleRecords(t, oracle, got, pkts, core.LoopFast, m.why)
					if t.Failed() {
						t.Fatalf("always-faulting program %d under %v: %q", i, pol.Policy, src)
					}
				}
			}
		})
	})
	for _, l := range summaryLoops {
		t.Run(l.name, func(t *testing.T) {
			forEachMode(t, func(t *testing.T, m summaryMode) {
				for _, pol := range policies {
					oracle, got := m.pair(t, summaryApp, core.Options{NoVerify: l.noVerify, Errors: pol})
					requireOracleRecords(t, oracle, got, pkts, m.loop(l.loop), m.why)
					if t.Failed() {
						t.Fatalf("under %v", pol.Policy)
					}
				}
			})
		})
	}
}

// midEntrySrc enters a block in its middle through an indirect jump and
// later at its leader, so two entry suffixes of one block overlap:
// Unique must count their union once.
const midEntrySrc = `
	.text
	.global m
m:
	la   t0, mid
	li   t1, 2
	mv   a2, zero
	jr   t0
blk:
	addi a2, a2, 1
mid:
	addi a2, a2, 3
	addi t1, t1, -1
	bne  t1, zero, blk
	mv   a0, a2
	ret
`

// TestBlockSummaryMidBlockEntry pins the overlapping-suffix case of the
// Unique derivation on every loop the verifier lets the program reach.
func TestBlockSummaryMidBlockEntry(t *testing.T) {
	app := func() *core.App { return &core.App{Name: "mid", Source: midEntrySrc, Entry: "m"} }
	pkts := summaryPackets()
	for _, l := range summaryLoops {
		t.Run(l.name, func(t *testing.T) {
			oracle, got := oraclePair(t, app, core.Options{NoVerify: l.noVerify})
			recs := requireOracleRecords(t, oracle, got, pkts, l.loop, core.ReasonRecords)
			if r := recs[0]; r.Unique != 12 || r.Instructions != 15 {
				t.Errorf("record %+v, want 15 instructions over 12 unique", r)
			}
		})
	}
}

// TestBlockSummaryStepLimitSweep runs the packets under every step budget
// from 1 past the longest packet, so the budget runs out inside every
// block position: the exhausted packets quarantine with the oracle's
// fault, the packets after them still get exact records, and coverage
// and per-PC counts include exactly the instructions before each cut.
func TestBlockSummaryStepLimitSweep(t *testing.T) {
	pkts := summaryPackets()
	for _, l := range summaryLoops {
		t.Run(l.name, func(t *testing.T) {
			forEachMode(t, func(t *testing.T, m summaryMode) {
				for budget := uint64(1); budget <= 50; budget++ {
					oracle, got := m.pair(t, summaryApp, core.Options{NoVerify: l.noVerify, StepLimit: budget})
					requireOracleRecords(t, oracle, got, pkts, m.loop(l.loop), m.why)
					if t.Failed() {
						t.Fatalf("step limit %d", budget)
					}
				}
			})
		})
	}
}

// TestCountPCsAfterNew pins the way the CLI, pbreport and the span report
// enable per-PC counts: setting Collector().CountPCs after New must move
// the next packets onto the plain untraced loop and still yield exact
// PCCounts; clearing it again returns to the fused loop.
func TestCountPCsAfterNew(t *testing.T) {
	pkts := mixedSizePackets(t, 20)
	app := func() *core.App { return apps.TSAApp(0x5453412D31363A31) }
	oracle, got := oraclePair(t, app, core.Options{})
	if loop, why := got.Loop(); loop != core.LoopFused || why != core.ReasonRecords {
		t.Fatalf("before CountPCs: loop %v (%s), want fused from block summaries", loop, why)
	}
	oracle.Collector().CountPCs = true
	got.Collector().CountPCs = true
	var total uint64
	for i, p := range pkts {
		want, _ := oracle.ProcessPacket(p)
		res, _ := got.ProcessPacket(p)
		if !reflect.DeepEqual(want.Record, res.Record) {
			t.Fatalf("packet %d: record differs:\n  oracle   %+v\n  threaded %+v", i, want.Record, res.Record)
		}
		total += res.Record.Instructions
	}
	if loop, why := got.Loop(); loop != core.LoopFast || why != core.ReasonCountPCs {
		t.Errorf("with CountPCs: loop %v (%s), want fast (countpcs)", loop, why)
	}
	counts := got.Collector().PCCounts
	if !reflect.DeepEqual(counts, oracle.Collector().PCCounts) {
		t.Error("PCCounts differ from the interpreter's")
	}
	var sum uint64
	for _, n := range counts {
		sum += n
	}
	if sum != total || total == 0 {
		t.Errorf("PCCounts sum to %d, want the %d instructions retired", sum, total)
	}

	got.Collector().CountPCs = false
	if _, err := got.ProcessPacket(pkts[0]); err != nil {
		t.Fatal(err)
	}
	if loop, why := got.Loop(); loop != core.LoopFused || why != core.ReasonRecords {
		t.Errorf("after clearing CountPCs: loop %v (%s), want fused from block summaries", loop, why)
	}
}

// TestLoopSelection pins which loop each configuration runs and why.
func TestLoopSelection(t *testing.T) {
	app := func() *core.App { return apps.TSAApp(0x5453412D31363A31) }
	pkt := mixedSizePackets(t, 1)[0]
	cases := []struct {
		name string
		opts core.Options
		prep func(b *core.Bench)
		loop core.Loop
		why  string
	}{
		{"records", core.Options{}, nil, core.LoopFused, core.ReasonRecords},
		{"records-noverify", core.Options{NoVerify: true}, nil, core.LoopFast, core.ReasonRecords},
		{"coverage", core.Options{Coverage: true}, nil, core.LoopFast, core.ReasonCoverage},
		{"countpcs", core.Options{}, func(b *core.Bench) { b.Collector().CountPCs = true }, core.LoopFast, core.ReasonCountPCs},
		{"detail", core.Options{Detail: true}, nil, core.LoopInterp, core.ReasonDetail},
		{"coverage-detail", core.Options{Coverage: true, Detail: true}, nil, core.LoopInterp, core.ReasonDetail},
		{"extra-tracer", core.Options{}, func(b *core.Bench) { b.AddTracer(vm.MultiTracer{}) }, core.LoopInterp, core.ReasonExtraTracer},
		{"interp", core.Options{Engine: core.EngineInterpreter}, nil, core.LoopInterp, core.ReasonInterp},
		{"compiled", core.Options{Engine: core.EngineCompiled}, nil, core.LoopFused, core.ReasonRecords},
		{"compiled-coverage", core.Options{Engine: core.EngineCompiled, Coverage: true}, nil, core.LoopFast, core.ReasonCoverage},
		{"compiled-detail", core.Options{Engine: core.EngineCompiled, Detail: true}, nil, core.LoopInterp, core.ReasonDetail},
		{"compiled-extra-tracer", core.Options{Engine: core.EngineCompiled}, func(b *core.Bench) { b.AddTracer(vm.MultiTracer{}) }, core.LoopInterp, core.ReasonExtraTracer},
		{"compiled-untraced", core.Options{Engine: core.EngineCompiled}, func(b *core.Bench) { b.SetTracing(false) }, core.LoopCompiled, core.ReasonUntraced},
		{"untraced", core.Options{}, func(b *core.Bench) { b.SetTracing(false) }, core.LoopFused, core.ReasonUntraced},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := core.New(app(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.prep != nil {
				tc.prep(b)
			}
			if _, err := b.ProcessPacket(pkt); err != nil {
				t.Fatal(err)
			}
			if loop, why := b.Loop(); loop != tc.loop || why != tc.why {
				t.Errorf("ran %v (%s), want %v (%s)", loop, why, tc.loop, tc.why)
			}
		})
	}
}
