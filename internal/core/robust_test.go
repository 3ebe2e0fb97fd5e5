package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/trace"
	"repro/internal/vm"
)

// poolWithPlan builds a pool with the injector's tracer on every core
// when the plan needs one, as cmd/packetbench attaches it.
func poolWithPlan(t *testing.T, cores int, opts Options, inj *faultinject.Injector) *Pool {
	t.Helper()
	pool, err := NewPool(derefApp(), cores, opts)
	if err != nil {
		t.Fatal(err)
	}
	if inj != nil && inj.NeedsTracer() {
		for i := 0; i < pool.Cores(); i++ {
			pool.Bench(i).AddTracer(inj.Tracer())
		}
		requireTracerLoop(t, pool)
	}
	return pool
}

// requireTracerLoop requires every core of pool to run on the
// interpreter for its extra tracer, so the crash-only guarantees a test
// checks hold for the loop that really runs. Call it before a run, or
// after one that returned normally (a stalled run may leave a wedged
// worker behind).
func requireTracerLoop(t *testing.T, pool *Pool) {
	t.Helper()
	for i := 0; i < pool.Cores(); i++ {
		if loop, why := pool.Bench(i).Loop(); loop != LoopInterp || why != ReasonExtraTracer {
			t.Errorf("core %d runs the %v loop (%s), want interp (%s)", i, loop, why, ReasonExtraTracer)
		}
	}
}

func mustPlan(t *testing.T, spec string) *faultinject.Injector {
	t.Helper()
	plan, err := faultinject.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return faultinject.New(2, plan)
}

// sliceRuns are the pool's two entry points over an in-memory packet
// slice. Both run the one streaming engine, so every crash-only option
// must act on both.
var sliceRuns = []struct {
	name string
	run  func(p *Pool, pkts []*trace.Packet, onResult func(int, Result)) error
}{
	{"RunTrace", func(p *Pool, pkts []*trace.Packet, onResult func(int, Result)) error {
		_, err := p.RunTrace(trace.NewSliceReader(pkts), 0, onResult)
		return err
	}},
	{"RunPackets", func(p *Pool, pkts []*trace.Packet, onResult func(int, Result)) error {
		_, err := p.RunPackets(pkts, onResult)
		return err
	}},
}

// finishWithin runs f on its own goroutine and fails the test when f
// has not returned within limit, so a run that wedges fails the test
// instead of hanging the binary (the wedged goroutine is left behind).
func finishWithin(t *testing.T, limit time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("run still going after %v", limit)
		return nil
	}
}

// TestStallWatchdog is the no-hang acceptance test: a worker wedged
// inside a packet (an injected unbounded stall) must end the run with a
// typed *StallError naming the stuck packet, within a small multiple of
// the stall timeout — never hang it.
func TestStallWatchdog(t *testing.T) {
	const timeout = 100 * time.Millisecond
	for _, sr := range sliceRuns {
		t.Run(sr.name, func(t *testing.T) {
			pool := poolWithPlan(t, 2, Options{StallTimeout: timeout}, mustPlan(t, "stall@5"))
			pool.SetBatchSize(1)
			err := finishWithin(t, 10*time.Second, func() error {
				return sr.run(pool, derefPackets(16), nil)
			})
			var se *StallError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *StallError", err)
			}
			if se.Index != 5 {
				t.Errorf("stalled packet = %d, want 5", se.Index)
			}
			if se.Stalled < timeout {
				t.Errorf("reported stall %v below the %v timeout", se.Stalled, timeout)
			}
		})
	}
}

// TestDelayDoesNotTripWatchdog: slow-but-progressing packets (injected
// latency spikes shorter than the timeout) must not be killed.
func TestDelayDoesNotTripWatchdog(t *testing.T) {
	inj := mustPlan(t, "delay@3:10,delay@9:10")
	pool := poolWithPlan(t, 2, Options{StallTimeout: 2 * time.Second}, inj)
	pool.SetBatchSize(1)
	n := 0
	if _, err := pool.RunTrace(trace.NewSliceReader(derefPackets(12)), 0, func(int, Result) { n++ }); err != nil {
		t.Fatalf("delayed run failed: %v", err)
	}
	if n != 12 {
		t.Errorf("processed %d packets, want 12", n)
	}
	requireTracerLoop(t, pool)
}

// TestRunDeadline: a pool run past Options.RunDeadline is cancelled with
// an error that wraps context.DeadlineExceeded — for slow packets, and
// for a worker wedged in an unbounded stall, which the cancelled run
// context unwedges.
func TestRunDeadline(t *testing.T) {
	const deadline = 60 * time.Millisecond
	for _, tc := range []struct {
		name string
		// start builds the pool and returns the run to time.
		start func(t *testing.T) func() error
	}{
		{"RunTrace", func(t *testing.T) func() error {
			plan := make([]faultinject.Injection, 16)
			for i := range plan {
				plan[i] = faultinject.Injection{Index: i, Kind: faultinject.Delay, Arg: 30}
			}
			inj := faultinject.New(1, plan)
			pool := poolWithPlan(t, 2, Options{RunDeadline: deadline}, inj)
			pool.SetBatchSize(1)
			return func() error {
				_, err := pool.RunTrace(inj.Reader(trace.NewSliceReader(derefPackets(16))), 0, nil)
				return err
			}
		}},
		{"RunPacketsContext", func(t *testing.T) func() error {
			pool := poolWithPlan(t, 2, Options{RunDeadline: deadline}, mustPlan(t, "stall@5"))
			pool.SetBatchSize(1)
			return func() error {
				_, err := pool.RunPacketsContext(context.Background(), derefPackets(16), nil)
				return err
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := finishWithin(t, 10*time.Second, tc.start(t))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
			}
			if !strings.Contains(err.Error(), "deadline") {
				t.Errorf("deadline error does not say so: %v", err)
			}
		})
	}
}

// shedRun floods a 1-core pool whose first packet is slow, so the
// 4-job backlog fills and the shed policy decides the overflow's fate.
// It returns the per-index delivery counts and the shed total.
func shedRun(t *testing.T, n int, opts Options, run func(*Pool, []*trace.Packet, func(int, Result)) error) (seen []int, shed int, err error) {
	t.Helper()
	plan := []faultinject.Injection{{Index: 0, Kind: faultinject.Delay, Arg: 80}}
	inj := faultinject.New(1, plan)
	pool := poolWithPlan(t, 1, opts, inj)
	pool.SetBatchSize(1)
	seen = make([]int, n)
	err = run(pool, derefPackets(n), func(i int, res Result) {
		seen[i]++
		if res.Shed {
			shed++
		}
	})
	return seen, shed, err
}

// TestShedPoliciesExactlyOnce: under overload, every trace index is
// delivered exactly once — as a measurement or as a shed marker — and
// dropping policies actually drop, while the blocking policy never does.
func TestShedPoliciesExactlyOnce(t *testing.T) {
	const n = 60
	for _, tc := range []struct {
		name string
		shed ShedPolicy
	}{
		{"drop-newest", ShedDropNewest},
		{"drop-oldest", ShedDropOldest},
		{"block", ShedBlock},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sr := range sliceRuns {
				t.Run(sr.name, func(t *testing.T) {
					seen, shed, err := shedRun(t, n, Options{Shed: tc.shed}, sr.run)
					if err != nil {
						t.Fatalf("%s run failed: %v", tc.name, err)
					}
					for i, c := range seen {
						if c != 1 {
							t.Fatalf("index %d delivered %d times, want exactly once", i, c)
						}
					}
					if tc.shed == ShedBlock && shed != 0 {
						t.Errorf("lossless policy shed %d packets", shed)
					}
					if tc.shed != ShedBlock && shed == 0 {
						t.Error("overloaded run shed nothing")
					}
				})
			}
		})
	}
}

// TestShedChargesErrorBudget: shedding is loss and spends the same
// budget quarantines do; exhausting it aborts the run.
func TestShedChargesErrorBudget(t *testing.T) {
	for _, sr := range sliceRuns {
		t.Run(sr.name, func(t *testing.T) {
			_, _, err := shedRun(t, 80, Options{
				Shed:   ShedDropNewest,
				Errors: ErrorPolicy{Policy: SkipAndRecord, ErrorBudget: 3},
			}, sr.run)
			if err == nil || !strings.Contains(err.Error(), "shedding") {
				t.Fatalf("err = %v, want budget-exhausted shed abort", err)
			}
			if !strings.Contains(err.Error(), "error budget") {
				t.Errorf("shed abort does not name the budget: %v", err)
			}
		})
	}
}

// TestBatchedPanicAttribution is the regression for batch-granular jobs:
// a host panic mid-batch must quarantine exactly the one packet whose
// execution panicked, not its batchmates.
func TestBatchedPanicAttribution(t *testing.T) {
	inj := mustPlan(t, "panic@11")
	pool := poolWithPlan(t, 2, Options{Errors: ErrorPolicy{Policy: SkipAndRecord}}, inj)
	pool.SetBatchSize(8)
	faults := map[int]vm.FaultKind{}
	n := 0
	if _, err := pool.RunTrace(trace.NewSliceReader(derefPackets(24)), 0, func(i int, res Result) {
		n++
		if res.Faulted() {
			faults[i] = res.Record.Fault
		}
	}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if n != 24 {
		t.Fatalf("delivered %d results, want 24", n)
	}
	if len(faults) != 1 || faults[11] != vm.FaultHostPanic {
		t.Errorf("faults = %v, want exactly {11: FaultHostPanic}", faults)
	}
	requireTracerLoop(t, pool)
}

// TestChaosSoak drives a streaming run through a mixed host-fault plan —
// packet corruption, VM faults, a worker panic, latency spikes, a
// transient reader error — and asserts the crash-only invariants: the
// run completes, every index is delivered exactly once, faults are
// attributed to the planned packets, and the budget is respected.
func TestChaosSoak(t *testing.T) {
	const n = 160
	spec := "flip@5:1,vmfault@20:4,panic@33,delay@50:5,readerr@70,trunc@90:10,vmfault@110:3:1,delay@130:8,readerr@140:2"
	plan, err := faultinject.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(7, plan)
	pool := poolWithPlan(t, 4, Options{
		Errors:       ErrorPolicy{Policy: SkipAndRecord, ErrorBudget: 50},
		StallTimeout: 10 * time.Second,
	}, inj)
	pool.SetBatchSize(2)
	seen := make([]int, n)
	faults := map[int]vm.FaultKind{}
	shed := 0
	if _, err := pool.RunTrace(inj.Reader(trace.NewSliceReader(derefPackets(n))), 0, func(i int, res Result) {
		seen[i]++
		if res.Shed {
			shed++
		} else if res.Faulted() {
			faults[i] = res.Record.Fault
		}
	}); err != nil {
		t.Fatalf("chaos soak did not survive: %v", err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d delivered %d times, want exactly once", i, c)
		}
	}
	want := map[int]vm.FaultKind{
		5:   vm.FaultUnmapped,  // flipped header byte dereferences junk
		20:  vm.FaultBadInstr,  // injected VM fault
		33:  vm.FaultHostPanic, // injected worker panic
		110: vm.FaultBadInstr,
	}
	for idx, kind := range want {
		if faults[idx] != kind {
			t.Errorf("packet %d fault = %v, want %v", idx, faults[idx], kind)
		}
	}
	for idx := range faults {
		if _, planned := want[idx]; !planned {
			t.Errorf("unplanned quarantine at packet %d (%v)", idx, faults[idx])
		}
	}
	if len(faults)+shed > 50 {
		t.Errorf("loss %d+%d exceeds the error budget", len(faults), shed)
	}
	requireTracerLoop(t, pool)
}

// TestRetryDelayShape pins the backoff helper: zero base disables it,
// delays are deterministic, grow exponentially, and cap at 64x base plus
// bounded jitter.
func TestRetryDelayShape(t *testing.T) {
	const base = 10 * time.Millisecond
	if d := retryDelay(0, 3, 2); d != 0 {
		t.Errorf("zero base delay = %v, want 0", d)
	}
	if d := retryDelay(base, 3, 0); d != 0 {
		t.Errorf("attempt-0 delay = %v, want 0", d)
	}
	if a, b := retryDelay(base, 5, 2), retryDelay(base, 5, 2); a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
	for a := 1; a <= 40; a++ {
		d := retryDelay(base, 9, a)
		shift := a - 1
		if shift > 6 {
			shift = 6
		}
		lo := base << shift
		hi := lo + lo/2
		if d < lo || d > hi {
			t.Errorf("attempt %d delay %v outside [%v, %v]", a, d, lo, hi)
		}
	}
}

// TestRetryBackoffIntegration: a transient fault under Retry with a
// backoff still clears on the second attempt, and the run takes at
// least one backoff period.
func TestRetryBackoffIntegration(t *testing.T) {
	inj := mustPlan(t, "vmfault@1:2:1")
	b, err := New(derefApp(), Options{Errors: ErrorPolicy{
		Policy: Retry, MaxAttempts: 2, RetryBackoff: 5 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	b.AddTracer(inj.Tracer())
	start := time.Now()
	recs, err := b.RunPackets(derefPackets(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.Faulted() {
			t.Errorf("packet %d quarantined despite a clean backoff retry", i)
		}
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("run took %v, shorter than one backoff period", elapsed)
	}
}

func TestParseShedPolicy(t *testing.T) {
	for in, want := range map[string]ShedPolicy{
		"": ShedBlock, "block": ShedBlock,
		"drop-newest": ShedDropNewest, "newest": ShedDropNewest,
		"drop-oldest": ShedDropOldest, "oldest": ShedDropOldest,
	} {
		got, err := ParseShedPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseShedPolicy(%q) = %v, %v", in, got, err)
		}
	}
	for _, p := range []ShedPolicy{ShedBlock, ShedDropNewest, ShedDropOldest} {
		if round, err := ParseShedPolicy(p.String()); err != nil || round != p {
			t.Errorf("String/Parse round trip broken for %v", p)
		}
	}
	if _, err := ParseShedPolicy("yeet"); err == nil {
		t.Error("bad shed policy name accepted")
	}
}
