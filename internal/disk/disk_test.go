package disk

import (
	"errors"
	"testing"
	"testing/quick"

	"iotaxo/internal/sim"
)

// arrayCall issues one array call as an event chain, the way a PFS server
// drives its RAID group, runs the environment to completion and returns how
// long the call took and the error it completed with.
func arrayCall(env *sim.Env, call func(done func(error))) (sim.Duration, error) {
	start := env.Now()
	var end sim.Time
	var err error
	env.After(0, func() {
		call(func(e error) { end, err = env.Now(), e })
	})
	env.Run()
	return end - start, err
}

func TestDiskSequentialVsRandom(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, DefaultDisk())
	var seq, rnd sim.Time
	env.Go("seq", func(p *sim.Proc) {
		start := p.Now()
		for i := int64(0); i < 8; i++ {
			if err := d.Read(p, i*4096, 4096); err != nil {
				t.Errorf("read: %v", err)
			}
		}
		seq = p.Now() - start
	})
	env.Run()

	env2 := sim.NewEnv(1)
	d2 := NewDisk(env2, DefaultDisk())
	env2.Go("rnd", func(p *sim.Proc) {
		start := p.Now()
		for i := int64(0); i < 8; i++ {
			if err := d2.Read(p, (7-i)*1<<20, 4096); err != nil {
				t.Errorf("read: %v", err)
			}
		}
		rnd = p.Now() - start
	})
	env2.Run()
	if rnd <= seq {
		t.Fatalf("random (%v) not slower than sequential (%v)", rnd, seq)
	}
	if d.Seeks != 1 { // only the first access seeks
		t.Fatalf("sequential seeks = %d, want 1", d.Seeks)
	}
	if d2.Seeks != 8 {
		t.Fatalf("random seeks = %d, want 8", d2.Seeks)
	}
}

func TestDiskFailure(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, DefaultDisk())
	d.Fail()
	var err error
	var at sim.Time
	env.Go("t", func(p *sim.Proc) {
		p.Sleep(5)
		err = d.Write(p, 0, 100)
		at = p.Now()
	})
	env.Run()
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed", err)
	}
	if at != 5 || d.Ops != 0 || d.Seeks != 0 {
		t.Fatalf("failed write returned at %v with %d ops, %d seeks; want at 5 with none", at, d.Ops, d.Seeks)
	}
	d.Repair()
	env2 := sim.NewEnv(1)
	d2 := NewDisk(env2, DefaultDisk())
	d2.Fail()
	d2.Repair()
	env2.Go("t", func(p *sim.Proc) { err = d2.Write(p, 0, 100) })
	env2.Run()
	if err != nil {
		t.Fatalf("after repair: %v", err)
	}
}

func TestLayoutSingleUnit(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, ArrayConfig{Disks: 5, StripeUnit: 64 << 10, Disk: DefaultDisk()})
	ops := a.Layout(nil, 0, 64<<10)
	if len(ops) != 1 {
		t.Fatalf("ops = %d, want 1", len(ops))
	}
	if ops[0].length != 64<<10 {
		t.Fatalf("length = %d", ops[0].length)
	}
	// Row 0 parity is on the last drive; data unit 0 is drive 0.
	if ops[0].disk != 0 {
		t.Fatalf("disk = %d, want 0", ops[0].disk)
	}
}

func TestLayoutAvoidsParityDisk(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, ArrayConfig{Disks: 5, StripeUnit: 1 << 10, Disk: DefaultDisk()})
	// Walk several rows; data ops must never land on that row's parity disk.
	ops := a.Layout(nil, 0, 40<<10)
	for _, op := range ops {
		row := op.pos / a.cfg.StripeUnit
		if op.disk == a.parityDisk(row) {
			t.Fatalf("data op on parity disk: %+v (row %d)", op, row)
		}
	}
}

// Property: the layout covers exactly the requested bytes, in order, with
// unit-sized or smaller chunks and no overlap.
func TestLayoutCoverageProperty(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, ArrayConfig{Disks: 7, StripeUnit: 4096, Disk: DefaultDisk()})
	f := func(offRaw, lenRaw uint16) bool {
		off := int64(offRaw)
		length := int64(lenRaw)%20000 + 1
		ops := a.Layout(nil, off, length)
		var total int64
		cursor := off
		for _, op := range ops {
			if op.length <= 0 || op.length > a.cfg.StripeUnit {
				return false
			}
			// Each op must map the next logical chunk: reconstruct the
			// logical offset from (row,pos,disk) and compare with cursor.
			row := op.pos / a.cfg.StripeUnit
			within := op.pos % a.cfg.StripeUnit
			parity := a.parityDisk(row)
			idxInRow := op.disk
			if idxInRow > parity {
				idxInRow--
			}
			logical := (row*int64(a.DataWidth())+int64(idxInRow))*a.cfg.StripeUnit + within
			if logical != cursor {
				return false
			}
			cursor += op.length
			total += op.length
		}
		return total == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: parity rotates across all drives.
func TestParityRotationProperty(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, ArrayConfig{Disks: 5, StripeUnit: 1024, Disk: DefaultDisk()})
	seen := make(map[int]bool)
	for row := int64(0); row < 5; row++ {
		p := a.parityDisk(row)
		if p < 0 || p >= 5 {
			t.Fatalf("parity disk %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != 5 {
		t.Fatalf("parity used %d/5 drives", len(seen))
	}
}

func TestSmallWriteSlowerPerByteThanFullStripe(t *testing.T) {
	cfg := ArrayConfig{Disks: 5, StripeUnit: 64 << 10, Disk: DefaultDisk()}
	env := sim.NewEnv(1)
	a := NewArray(env, cfg)
	rowSize := a.RowSize()

	fullT, err := arrayCall(env, func(done func(error)) { a.WriteThenSpan(0, rowSize, 0, done) })
	if err != nil {
		t.Errorf("write: %v", err)
	}

	env2 := sim.NewEnv(1)
	a2 := NewArray(env2, cfg)
	smallT, err := arrayCall(env2, func(done func(error)) { a2.WriteThenSpan(0, 4096, 0, done) })
	if err != nil {
		t.Errorf("write: %v", err)
	}

	perByteFull := fullT.Seconds() / float64(rowSize)
	perByteSmall := smallT.Seconds() / 4096
	if perByteSmall <= perByteFull {
		t.Fatalf("small-write penalty missing: %g <= %g", perByteSmall, perByteFull)
	}
}

func TestSmallWritePenaltyAblation(t *testing.T) {
	base := ArrayConfig{Disks: 5, StripeUnit: 64 << 10, Disk: DefaultDisk()}
	withPenalty := base
	without := base
	without.DisableSmallWritePenalty = true

	timeFor := func(cfg ArrayConfig) sim.Time {
		env := sim.NewEnv(1)
		a := NewArray(env, cfg)
		d, err := arrayCall(env, func(done func(error)) { a.WriteThenSpan(0, 4096, 0, done) })
		if err != nil {
			t.Errorf("write: %v", err)
		}
		return d
	}
	if timeFor(without) >= timeFor(withPenalty) {
		t.Fatal("disabling the small-write penalty did not speed up sub-stripe writes")
	}
}

func TestDegradedReadReconstructs(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, ArrayConfig{Disks: 4, StripeUnit: 1024, Disk: DefaultDisk()})
	a.Disk(0).Fail()
	var degradedExtra bool
	// Unit 0 lives on drive 0 (failed).
	_, err := arrayCall(env, func(done func(error)) { a.ReadThenSpan(0, 1024, 0, done) })
	if err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}
	// Reconstruction must have touched the surviving drives.
	for i := 1; i < 4; i++ {
		if a.Disk(i).Ops > 0 {
			degradedExtra = true
		}
	}
	if !degradedExtra {
		t.Fatal("no reconstruction reads on surviving drives")
	}
}

func TestDoubleFailureFails(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, ArrayConfig{Disks: 4, StripeUnit: 1024, Disk: DefaultDisk()})
	a.Disk(0).Fail()
	a.Disk(1).Fail()
	var rerr, werr error
	env.After(0, func() {
		a.ReadThenSpan(0, 100, 0, func(err error) { rerr = err })
		a.WriteThenSpan(0, 100, 0, func(err error) { werr = err })
	})
	env.Run()
	if !errors.Is(rerr, ErrFailed) || !errors.Is(werr, ErrFailed) {
		t.Fatalf("read=%v write=%v, want ErrFailed", rerr, werr)
	}
}

func TestArrayParallelism(t *testing.T) {
	// A full-row write spread over 4 data drives should take much less than
	// 4x a single-unit transfer (drives work in parallel).
	cfg := ArrayConfig{Disks: 5, StripeUnit: 1 << 20, Disk: DefaultDisk()}
	env := sim.NewEnv(1)
	a := NewArray(env, cfg)
	rowT, err := arrayCall(env, func(done func(error)) { a.WriteThenSpan(0, a.RowSize(), 0, done) })
	if err != nil {
		t.Errorf("write: %v", err)
	}
	unit := sim.DurationOf(1<<20, cfg.Disk.BandwidthBps) + cfg.Disk.PerOp + cfg.Disk.Seek
	if rowT > 2*unit {
		t.Fatalf("full-row write %v not parallel (unit %v)", rowT, unit)
	}
}

func TestBadConfigsPanic(t *testing.T) {
	env := sim.NewEnv(1)
	for _, fn := range []func(){
		func() { NewArray(env, ArrayConfig{Disks: 2, StripeUnit: 1024, Disk: DefaultDisk()}) },
		func() { NewArray(env, ArrayConfig{Disks: 5, StripeUnit: 0, Disk: DefaultDisk()}) },
		func() { NewDisk(env, Config{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTotalOpsCounts(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, DefaultArray())
	if _, err := arrayCall(env, func(done func(error)) { a.WriteThenSpan(0, a.RowSize(), 0, done) }); err != nil {
		t.Errorf("write: %v", err)
	}
	if a.TotalOps() < int64(a.DataWidth())+1 {
		t.Fatalf("TotalOps = %d, want >= %d", a.TotalOps(), a.DataWidth()+1)
	}
}

// receiver lets one process await a mailbox's GetThen. Its callback is bound
// once, so a receive through it allocates nothing.
type receiver[T any] struct {
	mb   *sim.Mailbox[T]
	v    T
	wake func()
	got  func(T)
}

func newReceiver[T any](mb *sim.Mailbox[T]) *receiver[T] {
	r := &receiver[T]{mb: mb}
	r.got = func(v T) { r.v = v; r.wake() }
	return r
}

func (r *receiver[T]) start(wake func()) { r.wake = wake; r.mb.GetThen(r.got) }

// get blocks p until the mailbox hands the receiver a message.
func (r *receiver[T]) get(p *sim.Proc) T {
	p.Await(r.start)
	v := r.v
	var zero T
	r.v = zero
	return v
}

// TestArrayCallAllocatesNothing guards the pooled array chain: once the
// array's calls and the drives' transfers have warmed up, a sub-stripe write
// (read-modify-write on two drives) and a multi-row read allocate no object.
// A process waits for each call's done through a mailbox.
func TestArrayCallAllocatesNothing(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, DefaultArray())
	finished := new(sim.Mailbox[error]).Init(env)
	done := func(err error) { finished.Put(err) }
	allocs := -1.0
	env.Go("client", func(p *sim.Proc) {
		r := newReceiver(finished)
		calls := func() {
			a.WriteThenSpan(4096, 8192, 0, done)
			if err := r.get(p); err != nil {
				t.Errorf("write: %v", err)
			}
			a.ReadThenSpan(0, 1<<20, 0, done)
			if err := r.get(p); err != nil {
				t.Errorf("read: %v", err)
			}
		}
		for i := 0; i < 4; i++ {
			calls()
		}
		allocs = testing.AllocsPerRun(50, calls)
	})
	env.Run()
	if allocs != 0 {
		t.Fatalf("warmed-up array calls allocate %v objects, want 0", allocs)
	}
}

// TestProcWriteAllocatesNothing guards the process path onto the drive: a
// process awaits the pooled transfer chain, so once the drive's free list
// is warm a Write allocates no object, whether it seeks or streams.
func TestProcWriteAllocatesNothing(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, DefaultDisk())
	allocs := -1.0
	env.Go("writer", func(p *sim.Proc) {
		pos := int64(0)
		write := func() {
			if err := d.Write(p, pos, 4096); err != nil {
				t.Errorf("write: %v", err)
			}
			pos += 8192 // every other block: each write seeks
		}
		write()
		allocs = testing.AllocsPerRun(100, write)
	})
	env.Run()
	if allocs != 0 {
		t.Fatalf("a warmed-up process Write allocates %v objects, want 0", allocs)
	}
	if d.Ops != 102 || d.Seeks != 102 {
		t.Fatalf("ops %d, seeks %d; want 102 each", d.Ops, d.Seeks)
	}
}
