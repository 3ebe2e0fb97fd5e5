// Command perfbench is the pipeline benchmark: it runs the paper's
// pipeline (pcap reader, packet placement, simulated execution, record
// collection, aggregation) on named workloads and reports end-to-end
// metrics, or, with -trace 1, the per-layer cost ledger. See README.md.
//
// Usage, from the root of the repository:
//
//	python3 perfbench/run.py --workload tsa-mra-pool --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	// minReps and maxReps bound the fresh-process runs one end-to-end
	// measurement makes; between them, runs continue until -seconds
	// have passed.
	minReps = 5
	maxReps = 200
	// childTimeout kills a run that hangs.
	childTimeout = 150 * time.Second
	// workRoot holds generated inputs and result files, inside the
	// checkout the benchmark runs from.
	workRoot = ".bench_build"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed, mixed into each trace profile's seed")
		seconds = flag.Int("seconds", 10, "how long the end-to-end runs measure")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: the per-layer traced run")
		child   = flag.Bool("child", false, "internal: run the pipeline once and print the sample as JSON")
		inputs  = flag.String("inputs", "", "internal: comma-separated pcap paths for -child")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *child {
		s := runPipeline(w, strings.Split(*inputs, ","), nil)
		if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
			fatal(err)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(w *workload, seed int64, seconds time.Duration, traced bool) error {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(dir)

	paths, err := w.generate(seed, dir)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	if err := warm(paths); err != nil {
		return fmt.Errorf("warming inputs: %w", err)
	}
	want, err := oracle(w, paths)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	correct := true
	for kind, wrong := range wrongExpectations(want) {
		if len(diff(wrong, want)) == 0 {
			fmt.Printf("self-test: a wrong %s expectation was not caught\n", kind)
			correct = false
		}
	}
	// The oracle's packets and records are garbage now; start every
	// measurement from a collected heap.
	debug.FreeOSMemory()

	rep := report{Meta: collectMeta(w, seed, traced), Oracle: want}
	res := result{Metrics: map[string]metric{}}
	if traced {
		ok, err := runLayers(w, paths, want, &rep)
		if err != nil {
			return err
		}
		correct = correct && ok
		for _, l := range rep.Layers {
			res.Metrics[l.Name] = metric{Value: l.Value, Unit: l.Unit}
		}
	} else {
		if err := runEndToEnd(w, paths, want, seconds, &rep); err != nil {
			return err
		}
		for _, e := range endToEndMetrics {
			res.Metrics[e.name] = metric{Value: rep.Medians[e.name], Unit: e.unit}
		}
	}
	res.Attempted, res.Failed = rep.Attempted, rep.Failed
	res.Correct = correct && res.Failed == 0

	rep.print()
	if err := rep.save(w, seed, traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving results:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEndMetric derives one end-to-end figure from a run sample.
type endToEndMetric struct {
	name, unit string
	of         func(s *sample) float64
}

var endToEndMetrics = []endToEndMetric{
	{"pkts_per_s", "pkt/s", func(s *sample) float64 {
		return float64(s.Out.Packets-s.Out.Faulted) / s.WallS
	}},
	{"sim_minstr_per_s", "Minstr/s", func(s *sample) float64 {
		return float64(s.Out.TotalInstructions) / s.WallS / 1e6
	}},
	{"cpu_us_per_pkt", "us", func(s *sample) float64 {
		return s.CPUS * 1e6 / float64(s.Out.Packets)
	}},
	{"alloc_b_per_pkt", "B", func(s *sample) float64 {
		return float64(s.AllocB) / float64(s.Out.Packets)
	}},
	{"peak_rss_mb", "MiB", func(s *sample) float64 { return float64(s.MaxRSSB) / (1 << 20) }},
	{"setup_s", "s", func(s *sample) float64 { return s.SetupS }},
}

// runEndToEnd runs the pipeline in fresh processes until the measuring
// time is up, checks every run against the oracle and takes medians.
func runEndToEnd(w *workload, paths []string, want outputs, seconds time.Duration, rep *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	var good []*sample
	for len(rep.Samples) < maxReps && (len(rep.Samples) < minReps || time.Since(start) < seconds) {
		s, err := runChild(exe, w, paths)
		if err != nil {
			return err
		}
		rep.Samples = append(rep.Samples, s)
		rep.Attempted += w.packets
		bad := diff(want, s.Out)
		switch {
		case s.Err != "":
			fmt.Printf("run %d aborted: %s\n", len(rep.Samples), s.Err)
			rep.Failed += w.packets
		case len(bad) > 0:
			fmt.Printf("run %d: outputs differ from the interpreter oracle in %v\n", len(rep.Samples), bad)
			rep.Failed += w.packets
		default:
			// Faulted, quarantined or shed packets, and packets an
			// incomplete run never delivered.
			rep.Failed += s.Out.Faulted + s.Out.Shed + (w.packets - s.Out.Packets - s.Out.Shed)
			good = append(good, s)
		}
	}
	if len(good) == 0 {
		return errors.New("no run completed with correct outputs")
	}
	rep.FailedFrac = float64(rep.Failed) / float64(rep.Attempted)
	rep.Raw = map[string][]float64{}
	rep.Medians = map[string]float64{}
	for _, e := range endToEndMetrics {
		vals := make([]float64, len(good))
		for i, s := range good {
			vals[i] = e.of(s)
		}
		rep.Raw[e.name] = vals
		rep.Medians[e.name] = median(vals)
	}
	return nil
}

// runChild runs the pipeline once in a fresh process, so that set-up,
// peak RSS and CPU are those of a whole packetbench-style invocation.
func runChild(exe string, w *workload, paths []string) (*sample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name, "-inputs", strings.Join(paths, ","))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("pipeline run: %w", err)
	}
	var s sample
	if err := json.Unmarshal(bytes.TrimSpace(out), &s); err != nil {
		return nil, fmt.Errorf("pipeline run output: %w", err)
	}
	return &s, nil
}

func median(vals []float64) float64 {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// meta identifies the run: what was measured, on what, from which
// source.
type meta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	Packets    int    `json:"packets"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// Source identifies the code measured even outside a git checkout:
	// a digest of every Go, assembly and module file under the root.
	Source  string `json:"source_sha256"`
	Started string `json:"started"`
}

func collectMeta(w *workload, seed int64, traced bool) meta {
	m := meta{
		Workload: w.name, Seed: seed, Traced: traced, Packets: w.packets,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Commit: "unknown", Source: sourceDigest(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	return m
}

func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".s", ".mod":
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// report is everything a run measured: metadata, the oracle, the raw
// samples behind every median, and the traced run's layers and spans.
type report struct {
	Meta       meta                 `json:"meta"`
	Oracle     outputs              `json:"oracle"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	FailedFrac float64              `json:"failed_frac"`
	Medians    map[string]float64   `json:"medians,omitempty"`
	Raw        map[string][]float64 `json:"raw,omitempty"`
	Samples    []*sample            `json:"samples,omitempty"`
	Layers     []layerMetric        `json:"layers,omitempty"`
	Spans      []span               `json:"spans,omitempty"`
}

// print writes the human-readable report: metadata, then every metric
// by name with its unit.
func (r *report) print() {
	m, _ := json.Marshal(r.Meta)
	fmt.Printf("meta %s\n", m)
	if r.Layers != nil {
		for _, l := range r.Layers {
			fmt.Printf("%-36s %14.4f %-8s %s\n", l.Name, l.Value, l.Unit, l.Note)
		}
		return
	}
	for _, e := range endToEndMetrics {
		fmt.Printf("%-20s %14.4f %-9s (median of %d runs; raw %s)\n",
			e.name, r.Medians[e.name], e.unit, len(r.Raw[e.name]), fmtRaw(r.Raw[e.name]))
	}
	fmt.Printf("%-20s %14.4f %-9s (%d of %d packets)\n", "failed_frac", r.FailedFrac, "ratio", r.Failed, r.Attempted)
}

func fmtRaw(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// save writes the full report to .bench_build/results.
func (r *report) save(w *workload, seed int64, traced bool) error {
	dir := filepath.Join(workRoot, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, t)), b, 0o644)
}
