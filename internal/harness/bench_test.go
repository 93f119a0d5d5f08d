package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// checkBars requires the snapshot to carry exactly the named bars, in
// order, and to pass every one of them.
func checkBars(t *testing.T, snap Snapshot, names ...string) {
	t.Helper()
	got := []string{}
	for _, b := range snap.Bars {
		got = append(got, b.Name)
		if !b.Pass {
			t.Errorf("bar %s failed: %g %s %g", b.Name, b.Value, b.Op, b.Limit)
		}
	}
	if !slices.Equal(got, names) {
		t.Errorf("bars %v, want %v", got, names)
	}
	if !snap.Passed {
		t.Error("snapshot not passed")
	}
}

// roundTrip renders the snapshot as JSON, decodes it back with payload as
// the payload's type, and checks the envelope survived. It returns the
// decoded payload.
func roundTrip[P Payload](t *testing.T, snap Snapshot, payload P) P {
	t.Helper()
	back := Snapshot{Payload: payload}
	if err := json.Unmarshal([]byte(snap.JSON()), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Schema != snap.Schema || back.Experiment != snap.Experiment ||
		back.Passed != snap.Passed || !reflect.DeepEqual(back.Bars, snap.Bars) {
		t.Fatalf("snapshot envelope round-trip diverged:\n%s", snap.JSON())
	}
	return payload
}

// TestSnapshotBars checks the one bar evaluator: each comparison passes and
// fails where it should, and one failed bar fails the snapshot, which is
// what makes tracebench -bench exit nonzero.
func TestSnapshotBars(t *testing.T) {
	for _, tc := range []struct {
		op           string
		value, limit float64
		pass         bool
	}{
		{"<=", 0.1, 0.2, true},
		{"<=", 0.2, 0.2, true},
		{"<=", 0.3, 0.2, false},
		{">=", 3.1, 3, true},
		{">=", 3, 3, true},
		{">=", 2.9, 3, false},
		{"==", 808, 808, true},
		{"==", 807, 808, false},
	} {
		snap := newSnapshot("test", nil,
			Bar{Name: "holds", Value: 1, Op: "==", Limit: 1},
			Bar{Name: "probe", Value: tc.value, Op: tc.op, Limit: tc.limit})
		if b := snap.Bars[1]; b.Pass != tc.pass || snap.Passed != tc.pass {
			t.Errorf("%g %s %g: bar pass %v, snapshot passed %v, want %v",
				tc.value, tc.op, tc.limit, b.Pass, snap.Passed, tc.pass)
		}
		if !snap.Bars[0].Pass {
			t.Errorf("%g %s %g: the holding bar failed", tc.value, tc.op, tc.limit)
		}
	}
	if snap := newSnapshot("test", nil); !snap.Passed || snap.Bars == nil {
		t.Errorf("a snapshot without bars: passed %v, bars %v; want passed and an empty list", snap.Passed, snap.Bars)
	}
}

// TestCommittedSnapshotsSchema checks that every committed BENCH_*.json
// carries the current snapshot envelope version.
func TestCommittedSnapshotsSchema(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed snapshots found (%v)", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var env struct{ Schema int }
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if env.Schema != snapshotSchema {
			t.Errorf("%s: schema %d, want snapshotSchema %d", filepath.Base(f), env.Schema, snapshotSchema)
		}
	}
}

// TestBenchLadder runs the ladder bench's base rung alone.
func TestBenchLadder(t *testing.T) {
	snap, err := BenchLadder(BenchLadderMinRanks)
	if err != nil {
		t.Fatal(err)
	}
	checkBars(t, snap)
	p := snap.Payload.(LadderPayload)
	if len(p.Rungs) != 1 || p.Rungs[0].Ranks != BenchLadderMinRanks {
		t.Fatalf("rungs %+v, want one at %d ranks", p.Rungs, BenchLadderMinRanks)
	}
	if r := p.Rungs[0]; r.WallMS <= 0 || r.PeakHeapMB <= 0 {
		t.Errorf("rung %+v: want positive wall time and heap peak", r)
	}
	if back := roundTrip(t, snap, &LadderPayload{}); !reflect.DeepEqual(*back, p) {
		t.Fatalf("snapshot JSON round-trip diverged: %+v, want %+v", *back, p)
	}
}
