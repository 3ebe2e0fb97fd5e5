package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/microarch"
	"repro/internal/ptrace"
	"repro/internal/staticcheck"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// layerMargin is how far the per-packet layer costs may fall short of,
// or exceed, the end-to-end CPU per packet before the traced run fails:
// |layers.unattributed_share| <= layerMargin.
const layerMargin = 0.3

// Repetitions of the traced run's measurements; each reported layer
// metric is the median.
const (
	setupReps = 5
	loopReps  = 3
	rounds    = 7
)

// traceSampleEvery is the ptrace head-sampling rate the observer
// measurement arms (packetbench's -trace-sample default, 1/64).
const traceSampleEvery = 64

// retSource is a PB32 application that returns at once: running it
// measures the framework around each packet (placement, register
// set-up, record) with almost no simulated work.
const retSource = `
        .text
        .global process_packet
process_packet:
        ret
`

// span is one timed call into a layer, kept in the benchmark's memory
// and saved with the run's report.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced run began
	EndNS   int64  `json:"end_ns"`
	CPUNS   int64  `json:"cpu_ns"`
	Alloc   uint64 `json:"alloc_b"`
	Packets int    `json:"packets"`
}

type spanLog struct {
	t0    time.Time
	spans []span
}

// do runs f inside a span named name under parent, covering packets
// packets, and returns what it cost.
func (l *spanLog) do(name string, parent, packets int, f func()) cost {
	start := time.Since(l.t0)
	m := startMeter()
	f()
	c := m.stop()
	l.spans = append(l.spans, span{
		ID: len(l.spans), Parent: parent, Name: name,
		StartNS: start.Nanoseconds(), EndNS: (start + c.Wall).Nanoseconds(),
		CPUNS: c.CPU.Nanoseconds(), Alloc: c.Alloc, Packets: packets,
	})
	return c
}

// open starts a parent span whose cost is filled in by close.
func (l *spanLog) open(name string, parent int) (int, meter) {
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Name: name,
		StartNS: time.Since(l.t0).Nanoseconds()})
	return len(l.spans) - 1, startMeter()
}

func (l *spanLog) close(id int, m meter) {
	c := m.stop()
	s := &l.spans[id]
	s.EndNS = s.StartNS + c.Wall.Nanoseconds()
	s.CPUNS, s.Alloc = c.CPU.Nanoseconds(), c.Alloc
}

// layerMetric is one row of the per-layer ledger.
type layerMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// layerRun measures one workload's layers from outside, by calling
// each layer's public functions inside spans.
type layerRun struct {
	w     *workload
	paths []string
	app   *core.App
	pkts  []*trace.Packet
	log   spanLog
	out   []layerMetric
	// attempted and failed count the packets of the in-process pipeline
	// runs; a run that aborts or differs from the oracle fails them all.
	attempted, failed int
}

// check compares an in-process pipeline run with the oracle.
func (r *layerRun) check(what string, want outputs, s sample) bool {
	r.attempted += r.w.packets
	if d := diff(want, s.Out); s.Err != "" || len(d) > 0 {
		fmt.Printf("traced run: %s pipeline aborted (%s) or differs from the oracle in %v\n", what, s.Err, d)
		r.failed += r.w.packets
		return false
	}
	return true
}

func (r *layerRun) add(name string, value float64, unit, note string) {
	r.out = append(r.out, layerMetric{Name: name, Value: value, Unit: unit, Note: note})
}

func (r *layerRun) n() float64 { return float64(len(r.pkts)) }

// medianMS times f reps times, each inside its own span, and returns
// the median wall time in milliseconds.
func (r *layerRun) medianMS(name string, parent, reps int, f func()) float64 {
	ms := make([]float64, reps)
	for i := range ms {
		ms[i] = float64(r.log.do(name, parent, 0, f).Wall.Nanoseconds()) / 1e6
	}
	return median(ms)
}

// perPkt converts a cost over every packet into CPU ns per packet.
func (r *layerRun) perPkt(c cost) float64 { return float64(c.CPU.Nanoseconds()) / r.n() }

// loop runs every packet through a fresh bench (so stateful apps see the
// same sequence each time) inside a span and returns its cost. prep
// adjusts the bench before the timed loop.
func (r *layerRun) loop(name string, parent int, app *core.App, opts core.Options, prep func(*core.Bench) error) (cost, *core.Bench, error) {
	b, err := core.New(app, opts)
	if err == nil && prep != nil {
		err = prep(b)
	}
	if err != nil {
		return cost{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	c := r.log.do(name, parent, len(r.pkts), func() {
		for _, p := range r.pkts {
			if _, err = b.ProcessPacket(p); err != nil {
				return
			}
		}
	})
	if err != nil {
		return cost{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	return c, b, nil
}

// loopNS is loop's CPU nanoseconds per packet.
func (r *layerRun) loopNS(name string, parent int, app *core.App, opts core.Options, prep func(*core.Bench) error) (float64, error) {
	c, _, err := r.loop(name, parent, app, opts, prep)
	return r.perPkt(c), err
}

// read runs the workload's reader alone, batch by batch until EOF.
func (r *layerRun) read(parent int) (cost, error) {
	var err error
	c := r.log.do("trace.ReadBatch", parent, len(r.pkts), func() {
		rd, closeAll, oerr := openReader(r.paths, r.w.mmap)
		if oerr != nil {
			err = oerr
			return
		}
		buf := make([]*trace.Packet, 64)
		for {
			if _, rerr := trace.ReadBatch(rd, buf); rerr != nil {
				if rerr != io.EOF {
					err = rerr
				}
				break
			}
		}
		err = errors.Join(err, closeAll())
	})
	return c, err
}

// pool runs the preloaded packets through a pool of cores with no
// aggregation.
func (r *layerRun) pool(parent, cores int) (cost, error) {
	p, err := core.NewPool(r.app, cores, core.Options{})
	if err != nil {
		return cost{}, err
	}
	c := r.log.do(fmt.Sprintf("core.Pool.RunTrace(cores=%d)", cores), parent, len(r.pkts), func() {
		_, err = p.RunTrace(trace.NewSliceReader(r.pkts), 0, func(int, core.Result) {})
	})
	return c, err
}

// modeOptions is the collector configuration of the workload's
// pipeline, without telemetry.
func (r *layerRun) modeOptions() (string, core.Options) {
	if r.w.characterize() {
		return "coverage", core.Options{Coverage: true}
	}
	return "records", core.Options{}
}

// runLayers is the traced run: it times each layer on the workload's
// packets from outside, runs the pipeline in-process untraced and with
// ptrace armed, and checks that the layer costs add up to the
// end-to-end CPU per packet. It reports false when a check fails.
func runLayers(w *workload, paths []string, want outputs, rep *report) (bool, error) {
	pkts, err := readAll(paths)
	if err != nil {
		return false, err
	}
	app, err := w.buildApp(paths)
	if err != nil {
		return false, err
	}
	r := &layerRun{w: w, paths: paths, app: app, pkts: pkts, log: spanLog{t0: time.Now()}}
	root, rm := r.log.open("traced-run", -1)
	ok, err := r.measure(root, want)
	r.log.close(root, rm)
	rep.Layers, rep.Spans = r.out, r.log.spans
	rep.Attempted, rep.Failed = r.attempted, r.failed
	return ok, err
}

// measure runs the ledger. The layers on the workload's path are
// measured in rounds, each round next to an end-to-end run in this
// process, so that host noise hits both sides of the layer-sum check
// alike; the check uses the median of the per-round shares. Layers off
// the path are measured once.
func (r *layerRun) measure(root int, want outputs) (bool, error) {
	w, n := r.w, r.n()
	ok := true
	mode, modeOpts := r.modeOptions()
	frameApp := &core.App{Name: "ret", Source: retSource, Entry: "process_packet"}
	untracedPrep := func(b *core.Bench) error { b.SetTracing(false); return nil }
	telemetryOpts := modeOpts
	telemetryOpts.Metrics = telemetry.NewRegistry()

	// The records the aggregation and analysis layers consume, and the
	// per-call latency of the default configuration.
	b, err := core.New(r.app, core.Options{})
	if err != nil {
		return false, err
	}
	lat := make([]float64, len(r.pkts))
	results := make([]core.Result, len(r.pkts))
	r.log.do("core.ProcessPacket(timed)", root, len(r.pkts), func() {
		for i, p := range r.pkts {
			t := time.Now()
			results[i], err = b.ProcessPacket(p)
			lat[i] = float64(time.Since(t).Nanoseconds()) / 1e3
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return false, err
	}
	sort.Float64s(lat)
	records := make([]stats.PacketRecord, len(results))
	for i := range results {
		records[i] = results[i].Record
	}
	aggNS := make([]float64, loopReps)
	for i := range aggNS {
		aggNS[i] = r.perPkt(r.log.do("stats.Running.Add", root, len(r.pkts), func() {
			t := newTally()
			for i := range results {
				t.add(&results[i])
			}
		}))
	}
	agg := median(aggNS)
	occMS := r.medianMS("analysis.Occurrences", root, loopReps, func() {
		analysis.Occurrences(stats.InstructionCounts(records), topK)
	})
	curveMS := r.medianMS("analysis.CoverageCurve", root, loopReps, func() {
		analysis.CoverageCurve(stats.BlockSets(records), b.BlockMap().NumBlocks())
	})
	results, records = nil, nil

	// Rounds over the path.
	raw := map[string][]float64{}
	put := func(name string, v float64) { raw[name] = append(raw[name], v) }
	telemetryNS := func(parent int) (float64, error) {
		ns, err := r.loopNS("observer.telemetry", parent, r.app, telemetryOpts, nil)
		put("telemetry", ns)
		return ns, err
	}
	// runTraceNS is Bench.RunTrace over the preloaded packets: the loop
	// plus the record slice it keeps.
	runTraceNS := func(parent int, opts core.Options) (float64, error) {
		b, err := core.New(r.app, opts)
		if err != nil {
			return 0, err
		}
		c := r.log.do("core.Bench.RunTrace", parent, len(r.pkts), func() {
			_, err = b.RunTrace(trace.NewSliceReader(r.pkts), 0, nil)
		})
		put("runtrace", r.perPkt(c))
		return r.perPkt(c), err
	}
	for round := 0; round < rounds; round++ {
		rs, rm := r.log.open(fmt.Sprintf("round-%d", round), root)
		var s sample
		r.log.do("e2e.untraced", rs, len(r.pkts), func() { s = runPipeline(w, r.paths, nil) })
		ok = r.check("untraced", want, s) && ok
		e2eCPU := s.CPUS * 1e9 / n
		put("e2e.cpu", e2eCPU)
		put("e2e.wall", s.WallS)
		rc, err := r.read(rs)
		if err != nil {
			return false, err
		}
		put("read", r.perPkt(rc))
		put("read.alloc", float64(rc.Alloc)/n)
		frame, err := r.loopNS("core.ProcessPacket(ret)", rs, frameApp, core.Options{}, nil)
		if err != nil {
			return false, err
		}
		put("frame", frame)
		untraced, err := r.loopNS("vm.untraced.threaded", rs, r.app, core.Options{}, untracedPrep)
		if err != nil {
			return false, err
		}
		put("untraced.threaded", untraced)
		traced, err := r.loopNS("stats.collect."+mode, rs, r.app, modeOpts, nil)
		if err != nil {
			return false, err
		}
		put("traced."+mode, traced)
		// The layer sum for this round: the reader, aggregation and
		// analyses, plus the traced loop with telemetry inside
		// Bench.RunTrace (single core) or inside the pool at the
		// workload's core count.
		sum := r.perPkt(rc) + agg + occMS*1e6/n
		if w.characterize() {
			if _, err := telemetryNS(rs); err != nil {
				return false, err
			}
			run, err := runTraceNS(rs, telemetryOpts)
			if err != nil {
				return false, err
			}
			sum += run + curveMS*1e6/n
		} else {
			c, err := r.pool(rs, w.cores)
			if err != nil {
				return false, err
			}
			sum += r.perPkt(c)
		}
		put("attributed", sum)
		put("unattributed", 1-sum/e2eCPU)
		r.log.close(rs, rm)
	}
	med := func(name string) float64 { return median(raw[name]) }
	unattributed := med("unattributed")
	if math.Abs(unattributed) > layerMargin {
		fmt.Printf("layer-sum check failed: unattributed share %.3f (rounds %v) exceeds the margin %.2f\n",
			unattributed, raw["unattributed"], layerMargin)
		ok = false
	}

	// Off the path, once each. First the pipeline with packet-journey
	// tracing armed: its stage totals, and its wall time against the
	// untraced rounds.
	var s sample
	tr := ptrace.New(ptrace.Config{Lanes: w.cores, SampleEvery: traceSampleEvery})
	r.log.do("e2e.ptrace", root, len(r.pkts), func() { s = runPipeline(w, r.paths, tr) })
	ok = r.check("ptrace-armed", want, s) && ok
	stages := tr.Summary(1).Stages
	tracedWall := s.WallS
	if !w.characterize() {
		if _, err = telemetryNS(root); err != nil {
			return false, err
		}
		if _, err = runTraceNS(root, modeOpts); err != nil {
			return false, err
		}
	}
	pc1, err := r.pool(root, 1)
	if err != nil {
		return false, err
	}
	pc2, err := r.pool(root, 2)
	if err != nil {
		return false, err
	}
	offPath := map[string]float64{}
	for _, e := range []core.EngineKind{core.EngineInterpreter, core.EngineCompiled} {
		c, b, err := r.loop("vm.untraced."+e.String(), root, r.app, core.Options{Engine: e}, untracedPrep)
		if err != nil {
			return false, err
		}
		offPath[e.String()] = r.perPkt(c)
		if e == core.EngineCompiled {
			var exits uint64
			for _, x := range b.CompiledStats().Exits {
				exits += x
			}
			offPath["exits"] = float64(exits) / n
		}
	}
	modes := []struct {
		name string
		opts core.Options
	}{
		{"records", core.Options{}},
		{"coverage", core.Options{Coverage: true}},
		{"detail", core.Options{Detail: true}},
	}
	for _, m := range modes {
		if m.name == mode {
			offPath[m.name] = med("traced." + mode)
			continue
		}
		if offPath[m.name], err = r.loopNS("stats.collect."+m.name, root, r.app, m.opts, nil); err != nil {
			return false, err
		}
	}
	ptraceOpts := modeOpts
	ptraceOpts.Trace = ptrace.New(ptrace.Config{Lanes: 1, SampleEvery: traceSampleEvery})
	if offPath["ptrace"], err = r.loopNS("observer.ptrace", root, r.app, ptraceOpts, nil); err != nil {
		return false, err
	}
	offPath["microarch"], err = r.loopNS("observer.microarch", root, r.app, modeOpts, func(b *core.Bench) error {
		icache, err := microarch.NewCache(4096, 16, 2)
		if err != nil {
			return err
		}
		dcache, err := microarch.NewCache(8192, 16, 2)
		if err != nil {
			return err
		}
		b.AddTracer(microarch.NewProfiler(icache, dcache))
		return nil
	})
	if err != nil {
		return false, err
	}

	// Set-up layers, each public call timed on its own.
	setup, sm := r.log.open("setup", root)
	routeMS := 0.0
	if w.app == "radix" {
		dsts, err := destinations(r.paths)
		if err != nil {
			return false, err
		}
		routeMS = r.medianMS("route.TableFromTraffic", setup, setupReps, func() { deriveTable(dsts) })
	}
	var (
		prog  *asm.Program
		facts *staticcheck.Facts
		tprog *vm.Program
	)
	asmMS := r.medianMS("asm.Assemble", setup, setupReps, func() { prog, err = asm.Assemble(r.app.Source, asm.Options{}) })
	if err != nil {
		return false, err
	}
	verifyMS := r.medianMS("staticcheck.VerifyWithFacts", setup, setupReps, func() {
		_, facts = staticcheck.VerifyWithFacts(prog, staticcheck.Options{
			Layout: core.LayoutFor(prog, core.DefaultHeapSize), Entries: []string{r.app.Entry}})
	})
	blocks := analysis.NewBlockMap(prog.Text, prog.TextBase)
	translateMS := r.medianMS("vm.TranslateWithFacts", setup, setupReps, func() {
		tprog = vm.TranslateWithFacts(prog.Text, prog.TextBase, blocks, facts.Translation())
	})
	compileMS := r.medianMS("vm.Compile", setup, setupReps, func() { vm.Compile(tprog, facts.Translation(), vm.CompileConfig{}) })
	newPoolMS := r.medianMS("core.NewPool", setup, setupReps, func() {
		if w.characterize() {
			_, err = core.New(r.app, core.Options{Coverage: true, Metrics: telemetry.NewRegistry()})
		} else {
			_, err = core.NewPool(r.app, w.cores, core.Options{})
		}
	})
	if err != nil {
		return false, err
	}
	r.log.close(setup, sm)

	frame, untraced := med("frame"), med("untraced.threaded")
	tracedRecords := offPath["records"]
	measured := want.Packets - want.Faulted
	path := func(yes bool, s string) string {
		if yes {
			return s
		}
		return "off this workload's path"
	}
	samples := fmt.Sprintf("median of %d rounds", rounds)
	r.add("trace.read_ns_per_pkt", med("read"), "ns", "CPU, reader alone via trace.ReadBatch; "+samples)
	r.add("trace.read_alloc_b_per_pkt", med("read.alloc"), "B", "")
	r.add("core.frame_ns_per_pkt", frame, "ns", "CPU, ProcessPacket of a return-at-once app; "+samples)
	r.add("core.pool_overhead_ns_per_pkt", r.perPkt(pc1)-tracedRecords, "ns", path(!w.characterize(), "CPU, 1-core pool minus bare records loop"))
	runTraceBase := tracedRecords
	if w.characterize() {
		runTraceBase = med("telemetry")
	}
	r.add("core.runtrace_overhead_ns_per_pkt", med("runtrace")-runTraceBase, "ns", path(w.characterize(), "CPU, Bench.RunTrace (records kept) minus bare loop"))
	r.add("core.pool_speedup", pc1.Wall.Seconds()/pc2.Wall.Seconds(), "x", path(!w.characterize(), "wall, 1 core over 2 cores"))
	r.add("core.exec_us_p50", quantile(lat, 0.50), "us", fmt.Sprintf("wall per ProcessPacket, %d samples", len(lat)))
	r.add("core.exec_us_p99", quantile(lat, 0.99), "us", fmt.Sprintf("wall per ProcessPacket, %d samples", len(lat)))
	r.add("core.exec_samples", float64(len(lat)), "count", "")
	r.add("vm.untraced_ns_per_pkt.interp", offPath["interp"]-frame, "ns", "CPU, SetTracing(false) minus frame")
	r.add("vm.untraced_ns_per_pkt.threaded", untraced-frame, "ns", "CPU, SetTracing(false) minus frame; "+samples)
	r.add("vm.untraced_ns_per_pkt.compiled", offPath["compiled"]-frame, "ns", "CPU, SetTracing(false) minus frame")
	r.add("vm.sim_instrs_per_pkt", float64(want.TotalInstructions)/float64(measured), "count", "exact, from the records")
	r.add("vm.compiled_exits_per_pkt", offPath["exits"], "count", "exact, Bench.CompiledStats")
	for _, m := range modes {
		r.add("stats.collect_ns_per_pkt."+m.name, offPath[m.name]-untraced, "ns", path(m.name == mode, "CPU, traced minus untraced threaded"))
	}
	r.add("stats.aggregate_ns_per_pkt", agg, "ns", "CPU, stats.Running.Add + verdicts")
	r.add("analysis.occurrences_ms", occMS, "ms", "")
	r.add("analysis.coverage_curve_ms", curveMS, "ms", path(w.characterize(), ""))
	r.add("route.table_ms", routeMS, "ms", path(w.app == "radix", ""))
	r.add("asm.assemble_ms", asmMS, "ms", "")
	r.add("staticcheck.verify_ms", verifyMS, "ms", "")
	r.add("vm.translate_ms", translateMS, "ms", "")
	r.add("vm.compile_ms", compileMS, "ms", "off the default engine's path")
	r.add("core.new_pool_ms", newPoolMS, "ms", "includes apps Init per core")
	r.add("telemetry.ns_per_pkt", med("telemetry")-med("traced."+mode), "ns", path(w.characterize(), "CPU, armed minus unarmed"))
	r.add("ptrace.ns_per_pkt", offPath["ptrace"]-med("traced."+mode), "ns", "CPU, armed at 1/64 minus unarmed; no workload arms it")
	r.add("microarch.ns_per_pkt", offPath["microarch"]-med("traced."+mode), "ns", "CPU, profiler minus unarmed; no workload arms it")
	r.add("ptrace.stage_read_ns_per_pkt", float64(stages[ptrace.StageRead].SumNS)/n, "ns", path(!w.characterize(), "wall, ptrace stage total over packets"))
	r.add("ptrace.stage_queue_us_per_batch", stages[ptrace.StageQueue].MeanNS()/1e3, "us", path(!w.characterize(), "wall, ptrace mean batch wait in the job queue"))
	r.add("ptrace.stage_exec_ns_per_pkt", float64(stages[ptrace.StageExec].SumNS)/n, "ns", "wall, ptrace stage total over packets")
	r.add("layers.e2e_cpu_us_per_pkt", med("e2e.cpu")/1e3, "us", "CPU, untraced pipeline in this process; "+samples)
	r.add("layers.attributed_us_per_pkt", med("attributed")/1e3, "us", "sum of the per-packet layer costs on the path")
	r.add("layers.unattributed_share", unattributed, "ratio", fmt.Sprintf("check: |share| <= %.2f; %s", layerMargin, samples))
	r.add("layers.tracing_overhead_share", tracedWall/med("e2e.wall")-1, "ratio", "wall, ptrace-armed pipeline over untraced")
	return ok, nil
}

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
