package main

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ptrace"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// topK is the occurrence-table depth packetbench prints.
const topK = 3

// outputs are the simulated statistics of one run, compared for
// identity with the single-core interpreter oracle.
type outputs struct {
	Packets           int            `json:"packets"` // records, faulted ones included
	Faulted           int            `json:"faulted"`
	Shed              int            `json:"shed"`
	TotalInstructions uint64         `json:"total_instructions"`
	MeanInstructions  float64        `json:"mean_instructions"`
	MeanUnique        float64        `json:"mean_unique"`
	MeanPacketAcc     float64        `json:"mean_packet_acc"`
	MeanNonPacketAcc  float64        `json:"mean_nonpacket_acc"`
	PacketReads       uint64         `json:"packet_reads"`
	PacketWrites      uint64         `json:"packet_writes"`
	NonPacketReads    uint64         `json:"nonpacket_reads"`
	NonPacketWrites   uint64         `json:"nonpacket_writes"`
	Verdicts          map[uint32]int `json:"verdicts"`
	TopCount          uint64         `json:"top_count"` // most frequent instructions/packet
	// Coverage sizes and the coverage curve's 90% point; zero on the
	// pool workloads, which run without coverage.
	InstrMem  int `json:"instr_mem"`
	DataMem   int `json:"data_mem"`
	PacketMem int `json:"packet_mem"`
	Blocks90  int `json:"blocks90"`
}

// diff names the fields in which got differs from want.
func diff(want, got outputs) []string {
	var bad []string
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			bad = append(bad, wv.Type().Field(i).Name)
		}
	}
	return bad
}

// wrongExpectations returns deliberately perturbed copies of want, one
// per kind of statistic the output check covers. Every one of them must
// fail the check.
func wrongExpectations(want outputs) map[string]outputs {
	wrong := map[string]outputs{}
	perturb := func(name string, f func(o *outputs)) {
		o := want
		o.Verdicts = make(map[uint32]int, len(want.Verdicts))
		for k, v := range want.Verdicts {
			o.Verdicts[k] = v
		}
		f(&o)
		wrong[name] = o
	}
	perturb("mean", func(o *outputs) { o.MeanInstructions = math.Nextafter(o.MeanInstructions, math.Inf(1)) })
	perturb("region", func(o *outputs) { o.NonPacketWrites++ })
	perturb("verdicts", func(o *outputs) {
		vs := make([]uint32, 0, len(o.Verdicts))
		for v := range o.Verdicts {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		o.Verdicts[vs[0]]--
		o.Verdicts[vs[0]+1000]++
	})
	perturb("coverage", func(o *outputs) { o.DataMem += 4 })
	return wrong
}

// tally aggregates run results the way packetbench does (stats.Running
// with verdicts) plus the region-split access totals.
type tally struct {
	agg                          stats.Running
	pktR, pktW, nonPktR, nonPktW uint64
}

func newTally() *tally { return &tally{agg: stats.Running{KeepInstructionCounts: true}} }

func (t *tally) add(res *core.Result) {
	if res.Shed {
		t.agg.AddShed(1)
		return
	}
	t.agg.Add(&res.Record)
	if res.Faulted() {
		return
	}
	t.agg.AddVerdict(res.Verdict)
	r := &res.Record
	t.pktR += r.PacketReads
	t.pktW += r.PacketWrites
	t.nonPktR += r.NonPacketReads
	t.nonPktW += r.NonPacketWrites
}

// outputs returns the aggregate; occ is the run's occurrence table.
func (t *tally) outputs(occ analysis.OccurrenceTable) outputs {
	s := t.agg.Summary()
	o := outputs{
		Packets: s.Packets, Faulted: s.Faulted, Shed: s.Shed,
		TotalInstructions: s.TotalInstructions,
		MeanInstructions:  s.MeanInstructions, MeanUnique: s.MeanUnique,
		MeanPacketAcc: s.MeanPacketAcc, MeanNonPacketAcc: s.MeanNonPacketAcc,
		PacketReads: t.pktR, PacketWrites: t.pktW,
		NonPacketReads: t.nonPktR, NonPacketWrites: t.nonPktW,
		Verdicts: t.agg.Verdicts(),
	}
	if len(occ.Top) > 0 {
		o.TopCount = occ.Top[0].Value
	}
	return o
}

// coverage fills the coverage fields from a single-core bench and the
// run's coverage curve.
func (o *outputs) coverage(b *core.Bench, curve []analysis.CoveragePoint) {
	col := b.Collector()
	o.InstrMem, o.DataMem, o.PacketMem = col.InstrMemSize(), col.DataMemSize(), col.PacketMemSize()
	o.Blocks90 = analysis.MinBlocksForCoverage(curve, 0.9)
}

// cost is what one measured region consumed: host wall time, process
// user+sys CPU (every goroutine, GC included) and Go heap allocation.
type cost struct {
	Wall  time.Duration
	CPU   time.Duration
	Alloc uint64
}

type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter {
	return meter{alloc: totalAlloc(), cpu: cpuTime(), wall: time.Now()}
}

func (m meter) stop() cost {
	wall := time.Since(m.wall)
	cpu := cpuTime()
	return cost{Wall: wall, CPU: cpu - m.cpu, Alloc: totalAlloc() - m.alloc}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS is the process's peak resident set in bytes (Linux reports
// ru_maxrss in KiB).
func maxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// sample is one end-to-end run of the pipeline in a fresh process.
type sample struct {
	SetupS  float64 `json:"setup_s"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocB  uint64  `json:"alloc_b"`
	MaxRSSB int64   `json:"max_rss_b"`
	Out     outputs `json:"outputs"`
	Err     string  `json:"error,omitempty"`
}

// runPipeline runs the workload's pipeline once, as packetbench would:
// set-up (table derivation, NewPool/New, reader open), then the timed
// region from opening the reader to the last in-order result and the
// analyses over the results. tr, when non-nil, arms packet-journey
// tracing (the traced run only).
func runPipeline(w *workload, paths []string, tr *ptrace.Tracer) sample {
	var s sample
	fail := func(err error) sample {
		s.Err = err.Error()
		return s
	}
	t0 := time.Now()
	app, err := w.buildApp(paths)
	if err != nil {
		return fail(err)
	}
	opts := core.Options{Trace: tr}
	var (
		pool  *core.Pool
		bench *core.Bench
	)
	if w.characterize() {
		opts.Coverage = true
		opts.Metrics = telemetry.NewRegistry()
		bench, err = core.New(app, opts)
	} else {
		pool, err = core.NewPool(app, w.cores, opts)
	}
	if err != nil {
		return fail(err)
	}

	m := startMeter()
	r, closeReader, err := openReader(paths, w.mmap)
	if err != nil {
		return fail(err)
	}
	s.SetupS = time.Since(t0).Seconds()
	t := newTally()
	var curve []analysis.CoveragePoint
	var occ analysis.OccurrenceTable
	if pool != nil {
		_, err = pool.RunTrace(r, 0, func(_ int, res core.Result) { t.add(&res) })
		occ = analysis.Occurrences(t.agg.InstructionCounts(), topK)
	} else {
		var records []stats.PacketRecord
		records, err = bench.RunTrace(r, 0, func(_ int, res core.Result) { t.add(&res) })
		occ = analysis.Occurrences(stats.InstructionCounts(records), topK)
		curve = analysis.CoverageCurve(stats.BlockSets(records), bench.BlockMap().NumBlocks())
	}
	c := m.stop()
	if cerr := closeReader(); err == nil {
		err = cerr
	}
	s.WallS, s.CPUS, s.AllocB = c.Wall.Seconds(), c.CPU.Seconds(), c.Alloc
	s.Out = t.outputs(occ)
	if bench != nil {
		s.Out.coverage(bench, curve)
	}
	s.MaxRSSB = maxRSS()
	if err != nil {
		return fail(err)
	}
	return s
}

// oracle computes the expected outputs: the same packets and the same
// statistics on a single core with the reference interpreter, outside
// any timed region.
func oracle(w *workload, paths []string) (outputs, error) {
	app, err := w.buildApp(paths)
	if err != nil {
		return outputs{}, err
	}
	b, err := core.New(app, core.Options{Engine: core.EngineInterpreter, Coverage: w.characterize()})
	if err != nil {
		return outputs{}, err
	}
	pkts, err := readAll(paths)
	if err != nil {
		return outputs{}, err
	}
	t := newTally()
	records, err := b.RunPackets(pkts, func(_ int, res core.Result) { t.add(&res) })
	if err != nil {
		return outputs{}, err
	}
	o := t.outputs(analysis.Occurrences(stats.InstructionCounts(records), topK))
	if w.characterize() {
		o.coverage(b, analysis.CoverageCurve(stats.BlockSets(records), b.BlockMap().NumBlocks()))
	}
	return o, nil
}
