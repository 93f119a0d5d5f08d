package harness

import (
	"reflect"
	"testing"
)

// TestBenchCodec asserts the codec acceptance bars on real registry
// streams: v2 at least 3x smaller than v1, the 4096-rank pruning probe
// decoding at most 20% of blocks and matching its ranks' records, and a v2
// full scan at least as fast as a v1 decode in records per second.
func TestBenchCodec(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry codec bench")
	}
	snap, err := BenchCodec()
	if err != nil {
		t.Fatal(err)
	}
	checkBars(t, snap, "size_ratio", "index_decoded_fraction", "indexed_records_matched", "v2_scan_krps")
	p := snap.Payload.(CodecPayload)
	if len(p.Rows) == 0 || p.TotalRecords == 0 {
		t.Fatalf("empty snapshot: %+v", p)
	}
	for _, row := range p.Rows {
		if row.Records == 0 {
			t.Errorf("workload %s produced no records", row.Workload)
		}
		if row.V2Bytes >= row.V1Bytes {
			t.Errorf("workload %s: v2 (%d) not smaller than v1 (%d)", row.Workload, row.V2Bytes, row.V1Bytes)
		}
	}
	if back := roundTrip(t, snap, &CodecPayload{}); !reflect.DeepEqual(*back, p) {
		t.Fatalf("snapshot JSON round-trip diverged: %+v, want %+v", *back, p)
	}
}
