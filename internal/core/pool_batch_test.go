package core

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestPoolBatchSizesMatchSingleCore pins the batch scheduler's contract
// across batch sizes straddling the interesting boundaries (packet
// granular, sub-batch trace, trace larger than one batch, one giant
// batch): the streamed records must match a single-core run exactly and
// arrive in order.
func TestPoolBatchSizesMatchSingleCore(t *testing.T) {
	pkts := make([]*trace.Packet, 53)
	for i := range pkts {
		pkts[i] = ipPacket(20 + i%40)
	}
	single, err := New(echoApp(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.RunPackets(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 7, 64, 1000} {
		pool, err := NewPool(echoApp(3), 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pool.SetBatchSize(batch)
		var got []Result
		processed, err := pool.RunTrace(trace.NewSliceReader(pkts), 0, func(i int, r Result) {
			if i != len(got) {
				t.Fatalf("batch=%d: out-of-order delivery: index %d at position %d", batch, i, len(got))
			}
			got = append(got, r)
		})
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if processed != len(pkts) || len(got) != len(pkts) {
			t.Fatalf("batch=%d: processed %d, delivered %d, want %d", batch, processed, len(got), len(pkts))
		}
		for i := range want {
			g := got[i].Record
			if g.Index != i {
				t.Errorf("batch=%d: record %d has index %d", batch, i, g.Index)
			}
			if g.Instructions != want[i].Instructions || g.Unique != want[i].Unique ||
				g.PacketAccesses() != want[i].PacketAccesses() ||
				g.NonPacketAccesses() != want[i].NonPacketAccesses() {
				t.Errorf("batch=%d: record %d differs: stream %+v, single %+v", batch, i, g, want[i])
			}
		}
	}
}

// TestPoolBatchFaultMidBatch places the faulting packet in the middle of
// a batch: the batch's successful prefix still counts, delivery remains
// the contiguous prefix before the fault, and the error names the fault.
func TestPoolBatchFaultMidBatch(t *testing.T) {
	pkts := make([]*trace.Packet, 128)
	for i := range pkts {
		pkts[i] = ipPacket(20)
	}
	const faultAt = 37 // inside the first 64-packet batch
	pkts[faultAt].Data[0] = 0xFF
	pool, err := NewPool(explodeApp(), 2, Options{StepLimit: 500})
	if err != nil {
		t.Fatal(err)
	}
	var delivered []int
	processed, err := pool.RunTrace(trace.NewSliceReader(pkts), 0, func(i int, r Result) {
		delivered = append(delivered, i)
	})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v, want step limit fault", err)
	}
	if processed < faultAt {
		t.Errorf("processed %d, want at least the faulting batch's prefix %d", processed, faultAt)
	}
	for pos, i := range delivered {
		if i != pos || i >= faultAt {
			t.Fatalf("delivered index %d at position %d despite fault at %d", i, pos, faultAt)
		}
	}
}

// TestPoolBatchReaderError checks a mid-trace reader error with batches
// smaller than the failure point: every packet before the error is
// processed, and the error surfaces wrapped.
func TestPoolBatchReaderError(t *testing.T) {
	boom := fmt.Errorf("truncated capture")
	pool, err := NewPool(echoApp(0), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool.SetBatchSize(4)
	processed, err := pool.RunTrace(&errorReader{n: 9, err: boom}, 0, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the reader error", err)
	}
	if processed != 9 {
		t.Errorf("processed %d packets before the reader error, want 9", processed)
	}
}

// TestPoolBatchLimitClamp checks the limit is honored exactly when it is
// not a multiple of the batch size.
func TestPoolBatchLimitClamp(t *testing.T) {
	pkts := make([]*trace.Packet, 100)
	for i := range pkts {
		pkts[i] = ipPacket(20)
	}
	pool, err := NewPool(echoApp(0), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool.SetBatchSize(64)
	processed, err := pool.RunTrace(trace.NewSliceReader(pkts), 70, nil)
	if err != nil {
		t.Fatal(err)
	}
	if processed != 70 {
		t.Errorf("processed %d, want the 70-packet limit", processed)
	}

	// SetBatchSize clamps nonsense to packet granularity.
	pool.SetBatchSize(-5)
	if pool.batchSize != 1 {
		t.Errorf("batchSize after SetBatchSize(-5) = %d, want 1", pool.batchSize)
	}
}

// TestPoolBatchStreamsFromMerge runs the pool over a timestamp-merged
// pair of shards and checks the merged order is what the pool observes.
func TestPoolBatchStreamsFromMerge(t *testing.T) {
	var even, odd []*trace.Packet
	for i := 0; i < 40; i++ {
		p := ipPacket(20 + i%30)
		p.Sec = uint32(i)
		if i%2 == 0 {
			even = append(even, p)
		} else {
			odd = append(odd, p)
		}
	}
	pool, err := NewPool(echoApp(0), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := trace.NewMergeReader(trace.NewSliceReader(even), trace.NewSliceReader(odd))
	lastSec := -1
	processed, err := pool.RunTrace(m, 0, func(i int, r Result) {
		// onResult fires in trace order; the merged trace is ordered by
		// Sec, so Record.Index tracks it 1:1.
		if r.Record.Index != i {
			t.Fatalf("index %d delivered at position %d", r.Record.Index, i)
		}
		lastSec = i
	})
	if err != nil {
		t.Fatal(err)
	}
	if processed != 40 || lastSec != 39 {
		t.Errorf("processed %d (last %d), want all 40 merged packets", processed, lastSec)
	}
}

// pacedReader yields packets at most ahead indexes past the count the
// run's callback has committed (reported through commit), so the
// re-sequencing window stays bounded whatever the host's scheduling.
type pacedReader struct {
	pkts  []*trace.Packet
	next  int
	ahead int

	mu   sync.Mutex
	cond sync.Cond
	done int
}

func newPacedReader(pkts []*trace.Packet, ahead int) *pacedReader {
	r := &pacedReader{pkts: pkts, ahead: ahead}
	r.cond.L = &r.mu
	return r
}

func (r *pacedReader) Next() (*trace.Packet, error) {
	if r.next == len(r.pkts) {
		return nil, io.EOF
	}
	r.mu.Lock()
	for r.next-r.done >= r.ahead {
		r.cond.Wait()
	}
	r.mu.Unlock()
	r.next++
	return r.pkts[r.next-1], nil
}

func (r *pacedReader) commit(done int) {
	r.mu.Lock()
	r.done = done
	r.mu.Unlock()
	r.cond.Signal()
}

// TestPoolRunTraceBytes bounds what a pool run with a callback allocates
// per packet: the block sets (each core's slab, its last chunk partly
// used) plus a small constant for the run's fixed set-up and its batch
// buffers. Re-sequencing and commit must not allocate per packet: a
// fresh []Result per batch alone is 112 B/packet.
//
// The reader keeps at most 8 batches ahead of the last commit. Unpaced,
// a worker the host deschedules lets the other run hundreds of batches
// ahead, and that window's buffers are allocated afresh: a cost of host
// scheduling (80+ B/packet under a parallel `go test ./...` or the race
// detector's shuffled scheduling), not of the commit path.
func TestPoolRunTraceBytes(t *testing.T) {
	const n = 40_000
	p := ipPacket(64)
	p.Data[2] = 100 // ~300 instructions per packet
	pkts := make([]*trace.Packet, n)
	for i := range pkts {
		pkts[i] = p
	}
	pool, err := NewPool(derefApp(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd := newPacedReader(pkts, 8*poolBatchSize)
	blocks, processed := 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// A run that stopped committing would leave the reader waiting.
	err = finishWithin(t, time.Minute, func() (err error) {
		processed, err = pool.RunTrace(rd, 0, func(i int, res Result) {
			blocks += len(res.Record.Blocks)
			if (i+1)%poolBatchSize == 0 {
				rd.commit(i + 1)
			}
		})
		return err
	})
	runtime.ReadMemStats(&after)
	if err != nil || processed != n {
		t.Fatalf("RunTrace: processed %d, err %v", processed, err)
	}
	const slabChunk = 4096 * unsafe.Sizeof(int(0)) // one stats slab chunk
	perPkt := float64(after.TotalAlloc-before.TotalAlloc) / n
	limit := (float64(blocks)*float64(unsafe.Sizeof(int(0)))+float64(uintptr(pool.Cores())*slabChunk))/n + 8
	t.Logf("%.1f B/packet (limit %.1f)", perPkt, limit)
	if perPkt > limit {
		t.Errorf("pool RunTrace allocated %.0f B/packet, want at most %.0f (block sets plus 8 B)", perPkt, limit)
	}
}

// TestPoolRecycledBatchesIsolated pins that recycling batch buffers
// never reaches a result the callback already holds: with 3-packet
// batches (so buffers cycle many times), every retained Result equals
// the single-core run's, records with Blocks, verdicts and quarantine
// faults included. A shed row checks the dropped batches' buffers too.
func TestPoolRecycledBatchesIsolated(t *testing.T) {
	const n = 90
	pkts := derefPackets(n)
	faulty := derefPackets(n)
	for i := 5; i < n; i += 11 {
		faulty[i].Data[1] = 1
	}
	skip := Options{Errors: ErrorPolicy{Policy: SkipAndRecord}}
	for _, tc := range []struct {
		name  string
		cores int
		opts  Options
		pkts  []*trace.Packet
	}{
		// Packet 0 is slow: on 2 cores the other one runs ahead, so
		// most batches wait in pending; on 1 core the queue overflows.
		{"fault-skip", 2, skip, faulty},
		{"shed-drop-oldest", 1, Options{Shed: ShedDropOldest}, pkts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single, err := New(derefApp(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var want []Result
			if _, err := single.RunTrace(trace.NewSliceReader(tc.pkts), 0, func(_ int, r Result) {
				want = append(want, r)
			}); err != nil {
				t.Fatal(err)
			}
			slow := faultinject.New(1, []faultinject.Injection{{Index: 0, Kind: faultinject.Delay, Arg: 50}})
			pool := poolWithPlan(t, tc.cores, tc.opts, slow)
			pool.SetBatchSize(3)
			var got []Result
			if _, err := pool.RunTrace(trace.NewSliceReader(tc.pkts), 0, func(_ int, r Result) {
				got = append(got, r)
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("delivered %d results, want %d", len(got), n)
			}
			shed, faulted := 0, 0
			for i := range got {
				w := want[i]
				if got[i].Shed {
					shed++
					w = Result{Shed: true, Record: stats.PacketRecord{Index: i}}
				}
				if got[i].Faulted() {
					faulted++
				}
				if !reflect.DeepEqual(got[i], w) {
					t.Errorf("result %d = %+v, want %+v", i, got[i], w)
				}
			}
			if tc.opts.Shed != ShedBlock && shed == 0 {
				t.Error("overloaded run shed nothing")
			}
			if tc.opts.Errors.Policy == SkipAndRecord && faulted == 0 {
				t.Error("no packet was quarantined")
			}
		})
	}
}
