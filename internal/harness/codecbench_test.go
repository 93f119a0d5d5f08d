package harness

import (
	"encoding/json"
	"testing"
)

// TestBenchCodec asserts the codec acceptance bars on real registry
// streams: v2 at least 3x smaller than v1, the 4096-rank pruning probe
// decoding at most 20% of blocks, and a v2 full scan at least as fast as a
// v1 decode in records per second.
func TestBenchCodec(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry codec bench")
	}
	snap, err := BenchCodec()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rows) == 0 || snap.TotalRecords == 0 {
		t.Fatalf("empty snapshot: %+v", snap)
	}
	for _, row := range snap.Rows {
		if row.Records == 0 {
			t.Errorf("workload %s produced no records", row.Workload)
		}
		if row.V2Bytes >= row.V1Bytes {
			t.Errorf("workload %s: v2 (%d) not smaller than v1 (%d)", row.Workload, row.V2Bytes, row.V1Bytes)
		}
	}
	if snap.SizeRatio < CodecSizeRatioFloor {
		t.Errorf("size ratio %.2f below the %.1fx floor", snap.SizeRatio, CodecSizeRatioFloor)
	}
	if snap.IndexFraction > CodecIndexFractionCeil {
		t.Errorf("indexed query decoded %.0f%% of blocks (ceiling %.0f%%)",
			snap.IndexFraction*100, CodecIndexFractionCeil*100)
	}
	if snap.IndexedMatched != 101*8 {
		t.Errorf("indexed query matched %d records, want %d", snap.IndexedMatched, 101*8)
	}
	if snap.V2ScanKrps < snap.V1DecodeKrps {
		t.Errorf("v2 full scan %.0fk records/s slower than v1 decode %.0fk records/s",
			snap.V2ScanKrps, snap.V1DecodeKrps)
	}
	if !snap.Passed {
		t.Errorf("snapshot not passed: %+v", snap)
	}
	var back CodecSnapshot
	if err := json.Unmarshal([]byte(snap.JSON()), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.SizeRatio != snap.SizeRatio || back.IndexDecoded != snap.IndexDecoded {
		t.Fatal("snapshot JSON round-trip diverged")
	}
}
