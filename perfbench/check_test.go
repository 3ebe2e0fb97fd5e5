package main

import (
	"encoding/json"
	"testing"
)

func sampleOutputs() outputs {
	return outputs{
		Packets: 1000, TotalInstructions: 817123,
		MeanInstructions: 817.123, MeanUnique: 128, MeanPacketAcc: 34, MeanNonPacketAcc: 51.0000001,
		PacketReads: 34000, NonPacketReads: 40000, NonPacketWrites: 11000,
		Verdicts: map[uint32]int{1: 600, 7: 400},
		TopCount: 816, InstrMem: 388, DataMem: 104692, PacketMem: 1500, Blocks90: 12,
	}
}

// TestWrongExpectationIsCaught is the output check's self-test: every
// deliberately wrong expectation must fail the comparison.
func TestWrongExpectationIsCaught(t *testing.T) {
	got := sampleOutputs()
	for kind, wrong := range wrongExpectations(got) {
		if d := diff(wrong, got); len(d) == 0 {
			t.Errorf("wrong %s expectation was not caught", kind)
		}
	}
	if d := diff(sampleOutputs(), got); len(d) != 0 {
		t.Errorf("identical outputs reported as different in %v", d)
	}
}

// TestOutputsSurviveJSON pins that a run's outputs, which reach the
// parent process as JSON, still compare equal to the oracle.
func TestOutputsSurviveJSON(t *testing.T) {
	want := sampleOutputs()
	b, err := json.Marshal(sample{Out: want})
	if err != nil {
		t.Fatal(err)
	}
	var s sample
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if d := diff(want, s.Out); len(d) != 0 {
		t.Errorf("outputs differ after a JSON round trip in %v", d)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 1,2,3 = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if q := quantile(sorted, 0.99); q != 99 {
		t.Errorf("p99 of 1..100 = %v", q)
	}
}
