package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/packet"
	"repro/internal/route"
	"repro/internal/trace"
)

// Application parameters, the packetbench CLI defaults.
const (
	tsaKey      = 0x5453412D31363A31
	maxPrefixes = 32768
	nextHops    = 16
	tableSeed   = 1
)

// workload is one named pipeline configuration: the trace the program
// reads, the application, and how the run engine drives it.
type workload struct {
	name    string
	profile string // gen profile the pcap is made from
	packets int    // packets offered per run
	nlanr   bool   // NLANR renumbering + address scramble, as tracegen -renumber -scramble
	shards  int    // pcap files, written round-robin and replayed through trace.MergeReader
	mmap    bool   // trace.OpenPcap (mmap) instead of trace.OpenPcapBuffered
	app     string // tsa, radix or flow
	// cores > 1 streams through core.Pool.RunTrace; 1 is a single-core
	// core.Bench.RunTrace with coverage on, every record kept, a
	// telemetry registry armed and the paper's analyses timed.
	cores int
}

// workloads are the benchmark's named workloads; README.md says why each
// was chosen.
var workloads = []workload{
	{
		name:    "tsa-mra-pool",
		profile: "MRA", packets: 100000, nlanr: true, shards: 1, mmap: true,
		app: "tsa", cores: 2,
	},
	{
		name:    "radix-dcweb-shards",
		profile: "DCWEB", packets: 100000, shards: 4, mmap: false,
		app: "radix", cores: 2,
	},
	{
		name:    "flow-lan-characterize",
		profile: "LAN", packets: 200000, shards: 1, mmap: true,
		app: "flow", cores: 1,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// characterize reports whether this is the single-core characterization
// run rather than a streaming pool run.
func (w *workload) characterize() bool { return w.cores == 1 }

// mixSeed spreads the benchmark seed over 64 bits (splitmix64) so that
// neighbouring seeds give unrelated traces.
func mixSeed(seed int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// generate writes the workload's pcap shards for seed into dir and
// returns their paths. gen only makes inputs; it is never timed.
func (w *workload) generate(seed int64, dir string) ([]string, error) {
	prof, err := gen.ProfileByName(w.profile)
	if err != nil {
		return nil, err
	}
	prof.Seed ^= mixSeed(seed)
	pkts := gen.Generate(prof, w.packets)
	if w.nlanr {
		gen.RenumberNLANR(pkts)
		gen.ScrambleAddrs(pkts)
	}
	paths := make([]string, w.shards)
	files := make([]*os.File, w.shards)
	writers := make([]*trace.PcapWriter, w.shards)
	closeAll := func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("%s-%d.pcap", w.profile, i))
		f, err := os.Create(paths[i])
		if err != nil {
			closeAll()
			return nil, err
		}
		files[i] = f
		if writers[i], err = trace.NewPcapWriter(f); err != nil {
			closeAll()
			return nil, err
		}
	}
	// Round-robin keeps each shard's timestamps monotone, so the merged
	// replay yields the generated order (tracegen -shards does the same).
	for i, p := range pkts {
		if err := writers[i%w.shards].WritePacket(p); err != nil {
			closeAll()
			return nil, err
		}
	}
	for i, f := range files {
		files[i] = nil
		if err := f.Close(); err != nil {
			closeAll()
			return nil, err
		}
	}
	return paths, nil
}

// warm reads every input file once so that no timed run pays for cold
// page-cache reads.
func warm(paths []string) error {
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// openReader opens the workload's reader over paths: mmap or buffered
// per shard, merged by timestamp when there are several shards.
func openReader(paths []string, mmap bool) (trace.Reader, func() error, error) {
	open := trace.OpenPcapBuffered
	if mmap {
		open = trace.OpenPcap
	}
	var shards []trace.Reader
	closeShards := func() error {
		var first error
		for _, s := range shards {
			if err := s.(io.Closer).Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for _, p := range paths {
		r, err := open(p)
		if err != nil {
			closeShards()
			return nil, nil, err
		}
		shards = append(shards, r)
	}
	if len(shards) == 1 {
		return shards[0], closeShards, nil
	}
	return trace.NewMergeReader(shards...), closeShards, nil
}

// readAll loads every packet of the trace into memory with buffered
// reads (the packets outlive the reader).
func readAll(paths []string) ([]*trace.Packet, error) {
	r, closeAll, err := openReader(paths, false)
	if err != nil {
		return nil, err
	}
	pkts, err := trace.ReadAll(r, 0)
	return pkts, errors.Join(err, closeAll())
}

// destinations collects the IPv4 destinations of the trace, the input
// of the routing-table derivation.
func destinations(paths []string) ([]uint32, error) {
	r, closeAll, err := openReader(paths, false)
	if err != nil {
		return nil, err
	}
	var dsts []uint32
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			closeAll()
			return nil, err
		}
		if h, err := packet.ParseIPv4(p.Data); err == nil {
			dsts = append(dsts, h.Dst)
		}
	}
	return dsts, closeAll()
}

// deriveTable builds the routing table from the trace the way
// packetbench does when no -table is given.
func deriveTable(dsts []uint32) *route.Table {
	return route.TableFromTraffic(dsts, maxPrefixes, nextHops, tableSeed)
}

// buildApp constructs the workload's application; for radix this reads
// the trace and derives the routing table (part of set-up).
func (w *workload) buildApp(paths []string) (*core.App, error) {
	switch w.app {
	case "tsa":
		return apps.TSAApp(tsaKey), nil
	case "flow":
		return apps.FlowClassification(flow.DefaultBuckets), nil
	case "radix":
		dsts, err := destinations(paths)
		if err != nil {
			return nil, err
		}
		return apps.IPv4Radix(deriveTable(dsts)), nil
	}
	return nil, fmt.Errorf("unknown app %q", w.app)
}
