package interpose

import (
	"testing"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

func sampleRecord() trace.Record {
	return trace.Record{
		Name: "SYS_pwrite", Args: []string{"3", "0", "65536"}, Ret: "65536",
		Path: "/pfs/f", Bytes: 65536, Class: trace.ClassSyscall,
	}
}

func TestRecorderChargesTime(t *testing.T) {
	env := sim.NewEnv(1)
	col := &Collector{}
	rec := NewRecorder(Ptrace(), col)
	var elapsed sim.Duration
	env.Go("app", func(p *sim.Proc) {
		start := p.Now()
		r := sampleRecord()
		rec.Enter(p, r.Name)
		rec.Exit(p, &r)
		elapsed = p.Now() - start
	})
	env.Run()
	sr := sampleRecord()
	want := eventCost(Ptrace(), sr.EstimatedTextSize())
	if elapsed != want {
		t.Fatalf("charged %v, want %v", elapsed, want)
	}
	if col.Len() != 1 || rec.Events != 1 {
		t.Fatalf("capture failed: %d %d", col.Len(), rec.Events)
	}
}

func TestZeroModelFree(t *testing.T) {
	env := sim.NewEnv(1)
	rec := NewRecorder(CostModel{}, &Collector{})
	var elapsed sim.Duration
	env.Go("app", func(p *sim.Proc) {
		start := p.Now()
		r := sampleRecord()
		rec.Enter(p, r.Name)
		rec.Exit(p, &r)
		elapsed = p.Now() - start
	})
	env.Run()
	if elapsed != 0 {
		t.Fatalf("zero model charged %v", elapsed)
	}
}

func TestFilterSuppresses(t *testing.T) {
	env := sim.NewEnv(1)
	col := &Collector{}
	rec := NewRecorder(CostModel{}, col)
	rec.Filter = func(r *trace.Record) bool { return r.Name != "SYS_pwrite" }
	env.Go("app", func(p *sim.Proc) {
		r := sampleRecord()
		rec.Enter(p, r.Name)
		rec.Exit(p, &r)
		other := sampleRecord()
		other.Name = "SYS_open"
		rec.Enter(p, other.Name)
		rec.Exit(p, &other)
	})
	env.Run()
	if col.Len() != 1 || rec.Suppressed != 1 || rec.Events != 1 {
		t.Fatalf("filter accounting: len=%d sup=%d ev=%d", col.Len(), rec.Suppressed, rec.Events)
	}
}

func TestModelOrdering(t *testing.T) {
	// The mechanisms must be ordered by invasiveness: VFS hook < preload <
	// ptrace < ltrace breakpoints.
	size := int64(120)
	v := eventCost(VFSHook(), size)
	pre := eventCost(Preload(), size)
	pt := eventCost(Ptrace(), size)
	lt := eventCost(LtraceBreakpoint(), size)
	if !(v < pre && pre < pt && pt < lt) {
		t.Fatalf("cost ordering broken: vfs=%v preload=%v ptrace=%v ltrace=%v", v, pre, pt, lt)
	}
}

// eventCost is the total a Recorder charges for one event producing n
// output bytes: the enter and exit stops plus the per-byte write.
func eventCost(m CostModel, n int64) sim.Duration {
	return m.EnterCost + m.ExitCost + sim.Duration(n)*m.PerOutputByte
}

func TestSinkFunc(t *testing.T) {
	var got *trace.Record
	s := SinkFunc(func(r *trace.Record) { got = r })
	r := sampleRecord()
	s.Emit(&r)
	if got == nil || got.Name != "SYS_pwrite" {
		t.Fatal("SinkFunc did not forward")
	}
}

func TestCollectorClones(t *testing.T) {
	col := &Collector{}
	r := sampleRecord()
	col.Emit(&r)
	r.Args[0] = "mutated"
	if col.Records[0].Args[0] == "mutated" {
		t.Fatal("collector shares arg storage with caller")
	}
}

func TestRecorderStatsAccumulate(t *testing.T) {
	env := sim.NewEnv(1)
	rec := NewRecorder(CostModel{}, &Collector{})
	env.Go("app", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r := sampleRecord()
			rec.Enter(p, r.Name)
			rec.Exit(p, &r)
		}
	})
	env.Run()
	sr := sampleRecord()
	if rec.Events != 5 || rec.OutputBytes != 5*sr.EstimatedTextSize() {
		t.Fatalf("stats: %d events, %d bytes", rec.Events, rec.OutputBytes)
	}
}
