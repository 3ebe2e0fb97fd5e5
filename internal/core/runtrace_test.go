package core

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/trace"
)

// indexedResult is one onResult call.
type indexedResult struct {
	i   int
	res Result
}

// failAfterReader yields the first n packets of pkts, then err.
type failAfterReader struct {
	pkts []*trace.Packet
	n    int
	err  error
}

func (f *failAfterReader) Next() (*trace.Packet, error) {
	if f.n == 0 {
		return nil, f.err
	}
	p := f.pkts[0]
	f.pkts, f.n = f.pkts[1:], f.n-1
	return p, nil
}

// runRecorded runs fn on a fresh echo bench and returns its records, the
// onResult sequence and the error.
func runRecorded(t *testing.T, fn func(*Bench, func(int, Result)) ([]stats.PacketRecord, error)) ([]stats.PacketRecord, []indexedResult, error) {
	t.Helper()
	b, err := New(echoApp(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var seen []indexedResult
	recs, err := fn(b, func(i int, r Result) { seen = append(seen, indexedResult{i, r}) })
	return recs, seen, err
}

// TestRunTraceMatchesRunPackets is Bench.RunTrace's contract: its records
// and onResult sequence equal RunPackets' over the same packets, in runs
// spanning several record chunks, and on a reader error, a FailFast
// fault or a limit, RunTrace hands back exactly the processed prefix.
func TestRunTraceMatchesRunPackets(t *testing.T) {
	prof, err := gen.ProfileByName("LAN")
	if err != nil {
		t.Fatal(err)
	}
	pkts := gen.Generate(prof, 3*recordChunk+123)
	midChunk := recordChunk + recordChunk/2
	oversize := append([]*trace.Packet(nil), pkts...)
	oversize[midChunk] = &trace.Packet{Data: make([]byte, MaxPacketLen+1)}
	boom := errors.New("truncated capture")

	for _, c := range []struct {
		name    string
		reader  func() trace.Reader
		limit   int
		want    []*trace.Packet // what RunPackets runs
		wantErr error           // nil: the error must match RunPackets'
	}{
		{"chunks", func() trace.Reader { return trace.NewSliceReader(pkts) }, 0, pkts, nil},
		{"reader-error", func() trace.Reader { return &failAfterReader{pkts: pkts, n: midChunk, err: boom} }, 0, pkts[:midChunk], boom},
		{"fail-fast", func() trace.Reader { return trace.NewSliceReader(oversize) }, 0, oversize, nil},
		{"limit", func() trace.Reader { return trace.NewSliceReader(pkts) }, midChunk, pkts[:midChunk], nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, gotSeen, gotErr := runRecorded(t, func(b *Bench, on func(int, Result)) ([]stats.PacketRecord, error) {
				return b.RunTrace(c.reader(), c.limit, on)
			})
			want, wantSeen, wantErr := runRecorded(t, func(b *Bench, on func(int, Result)) ([]stats.PacketRecord, error) {
				return b.RunPackets(c.want, on)
			})
			if c.wantErr != nil {
				if !errors.Is(gotErr, c.wantErr) || wantErr != nil {
					t.Fatalf("RunTrace err %v, RunPackets err %v; want %v and nil", gotErr, wantErr, c.wantErr)
				}
			} else if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("RunTrace err %v, RunPackets err %v", gotErr, wantErr)
			}
			if c.name == "fail-fast" && (gotErr == nil || len(got) != midChunk) {
				t.Fatalf("fail-fast run: %d records, err %v; want %d records and the fault", len(got), gotErr, midChunk)
			}
			if len(want) == 0 || len(wantSeen) != len(want) {
				t.Fatalf("RunPackets returned %d records, %d results", len(want), len(wantSeen))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("records differ: RunTrace %d, RunPackets %d", len(got), len(want))
			}
			if !reflect.DeepEqual(gotSeen, wantSeen) {
				t.Errorf("onResult sequences differ: RunTrace %d calls, RunPackets %d", len(gotSeen), len(wantSeen))
			}
		})
	}
}

// TestRunTraceRecordBytes bounds what RunTrace allocates per packet to
// keep its records: whole chunks (the last one partly used) plus the
// returned slice, and the block sets — not the repeated regrowth of one
// slice, which allocates about five times the records' size.
func TestRunTraceRecordBytes(t *testing.T) {
	const n = 5*recordChunk + 17
	p := ipPacket(64)
	pkts := make([]*trace.Packet, n)
	for i := range pkts {
		pkts[i] = p
	}
	b, err := New(echoApp(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := trace.NewSliceReader(pkts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, err := b.RunTrace(r, 0, nil)
	runtime.ReadMemStats(&after)
	if err != nil || len(recs) != n {
		t.Fatalf("RunTrace: %d records, err %v", len(recs), err)
	}
	blocks := 0
	for i := range recs {
		blocks += len(recs[i].Blocks)
	}
	recSize := float64(unsafe.Sizeof(stats.PacketRecord{}))
	perPkt := float64(after.TotalAlloc-before.TotalAlloc) / n
	chunked := (n + recordChunk - 1) / recordChunk * recordChunk
	limit := float64(chunked+n)*recSize/n + float64(blocks*int(unsafe.Sizeof(int(0))))/n + 8
	if perPkt > limit {
		t.Errorf("RunTrace allocated %.0f B/packet, want at most %.0f (%d chunked and %d returned %v-B records, plus block sets)", perPkt, limit, chunked, n, recSize)
	}
}
