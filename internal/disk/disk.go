// Package disk models rotating disks and RAID-5 arrays.
//
// The paper's overhead experiments wrote "constant sized output files under
// RAID 5 with a stripe width of 64 kilobytes across 252 hard drives". The
// two behaviours that matter for reproducing its bandwidth curves are
// captured here explicitly:
//
//   - per-request fixed costs (controller overhead, head positioning) that
//     penalize small transfers, and
//   - the RAID-5 small-write penalty: a write that does not cover a full
//     stripe row must read old data and old parity before writing new data
//     and new parity (read-modify-write), roughly quadrupling the I/O for
//     sub-stripe updates.
package disk

import (
	"errors"
	"fmt"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Config fixes one drive's performance envelope (2007-era SATA/FC drive).
type Config struct {
	PerOp        sim.Duration // controller + command overhead per request
	Seek         sim.Duration // average positioning cost per discontiguous run
	BandwidthBps float64      // sequential media rate, bytes/second
}

// DefaultDisk returns parameters for a typical 2007 enterprise drive behind
// a caching RAID controller: the effective seek penalty is far below the
// mechanical ~8 ms because the controller's write-back cache and queue
// reordering absorb most head movement.
func DefaultDisk() Config {
	return Config{
		PerOp:        100 * sim.Microsecond,
		Seek:         300 * sim.Microsecond,
		BandwidthBps: 80e6,
	}
}

// ErrFailed is returned by operations on a failed drive.
var ErrFailed = errors.New("disk: drive failed")

// Disk is a single drive with a serially-shared head.
type Disk struct {
	cfg     Config
	env     *sim.Env
	head    *sim.Resource
	nextSeq int64 // next sequential byte position; access elsewhere seeks

	failed bool

	// free is the drive's list of idle event-chain transfers (see access).
	free *access

	// Stats.
	Ops          int64
	BytesRead    int64
	BytesWritten int64
	Seeks        int64
}

// NewDisk returns an idle drive.
func NewDisk(env *sim.Env, cfg Config) *Disk {
	if cfg.BandwidthBps <= 0 {
		panic("disk: bandwidth must be positive")
	}
	return &Disk{cfg: cfg, env: env, head: sim.NewResource(env, 1), nextSeq: -1}
}

// Fail marks the drive failed; subsequent operations return ErrFailed.
func (d *Disk) Fail() { d.failed = true }

// Failed reports whether the drive has failed.
func (d *Disk) Failed() bool { return d.failed }

// Repair returns a failed drive to service.
func (d *Disk) Repair() { d.failed = false }

// access performs one contiguous transfer at the given byte position from
// process p, which awaits the transfer's event chain.
func (d *Disk) access(p *sim.Proc, pos, length int64, write bool) (err error) {
	p.Await(func(wake func()) {
		if !d.accessThen(pos, length, write, wake) {
			err = ErrFailed
			wake()
		}
	})
	return err
}

// accessThen starts one contiguous transfer as an event chain, calling done
// when the head releases, and reports false (never calling done) when the
// drive has failed. The cost, including the seek decision against nextSeq,
// is computed at call time, before the head is acquired.
func (d *Disk) accessThen(pos, length int64, write bool, done func()) bool {
	if d.failed {
		return false
	}
	cost := d.cfg.PerOp
	if pos != d.nextSeq {
		cost += d.cfg.Seek
		d.Seeks++
	}
	cost += sim.DurationOf(length, d.cfg.BandwidthBps)
	x := d.free
	if x != nil {
		d.free = x.next
		x.next = nil
	} else {
		x = &access{d: d}
		x.heldFn = x.held
		x.doneFn = x.finish
	}
	x.pos, x.length, x.write, x.cost, x.done = pos, length, write, cost, done
	d.head.AcquireThen(x.heldFn)
	return true
}

// access is one pooled event-chain transfer on a drive's head, running
// head.AcquireThen → After(cost) → head.Release. Its stages are bound once
// and it returns to the drive's free list on completion.
type access struct {
	d           *Disk
	pos, length int64
	write       bool
	cost        sim.Duration
	done        func()

	heldFn, doneFn func()
	next           *access // free-list link
}

func (x *access) held() { x.d.env.After(x.cost, x.doneFn) }

// finish releases the head, books the transfer and recycles x before
// calling done.
func (x *access) finish() {
	d := x.d
	d.head.Release()
	d.nextSeq = x.pos + x.length
	d.Ops++
	if x.write {
		d.BytesWritten += x.length
	} else {
		d.BytesRead += x.length
	}
	done := x.done
	x.done = nil
	x.next, d.free = d.free, x
	done()
}

// Read transfers length bytes starting at pos from the drive.
func (d *Disk) Read(p *sim.Proc, pos, length int64) error {
	return d.access(p, pos, length, false)
}

// Write transfers length bytes starting at pos to the drive.
func (d *Disk) Write(p *sim.Proc, pos, length int64) error {
	return d.access(p, pos, length, true)
}

// WriteThen transfers length bytes starting at pos to the drive as a pure
// event chain, calling done on completion. On a failed drive it returns
// ErrFailed at once and never calls done.
func (d *Disk) WriteThen(pos, length int64, done func()) error {
	if !d.accessThen(pos, length, true, done) {
		return ErrFailed
	}
	return nil
}

// ArrayConfig describes a RAID-5 group.
type ArrayConfig struct {
	Disks      int   // total drives in the group (data + rotating parity)
	StripeUnit int64 // bytes per stripe unit (the paper: 64 KB)
	Disk       Config
	// DisableSmallWritePenalty turns off read-modify-write accounting; used
	// by the ablation benchmark to show the penalty drives the low-blocksize
	// bandwidth droop.
	DisableSmallWritePenalty bool
}

// DefaultArray returns a 9-drive RAID-5 group with 64 KB stripe units.
func DefaultArray() ArrayConfig {
	return ArrayConfig{Disks: 9, StripeUnit: 64 << 10, Disk: DefaultDisk()}
}

// Array is a RAID-5 group: data striped across Disks-1 units per row with
// one rotating parity unit.
type Array struct {
	cfg   ArrayConfig
	env   *sim.Env
	disks []*Disk

	// tracer, when set, receives one coarse ClassDiskIO record per array
	// call (not per member-drive transfer), labelled with node.
	tracer func(*trace.Record)
	node   string

	// free is the array's list of idle calls (see arrayOp).
	free *arrayOp
}

// SetTracer installs (or, with nil fn, removes) the array-call tracer.
// node labels emitted records with the owning server's node name.
func (a *Array) SetTracer(node string, fn func(*trace.Record)) {
	a.node, a.tracer = node, fn
}

// NewArray builds the group. Disks must be >= 3 for RAID-5.
func NewArray(env *sim.Env, cfg ArrayConfig) *Array {
	if cfg.Disks < 3 {
		panic(fmt.Sprintf("disk: RAID-5 needs >= 3 drives, got %d", cfg.Disks))
	}
	if cfg.StripeUnit <= 0 {
		panic("disk: stripe unit must be positive")
	}
	a := &Array{cfg: cfg, env: env}
	for i := 0; i < cfg.Disks; i++ {
		a.disks = append(a.disks, NewDisk(env, cfg.Disk))
	}
	return a
}

// Disk returns drive i, for failure injection in tests.
func (a *Array) Disk(i int) *Disk { return a.disks[i] }

// DataWidth is the number of data units per stripe row.
func (a *Array) DataWidth() int { return a.cfg.Disks - 1 }

// RowSize is the number of data bytes per full stripe row.
func (a *Array) RowSize() int64 { return int64(a.DataWidth()) * a.cfg.StripeUnit }

// unitOp is one physical transfer planned on one member drive.
type unitOp struct {
	disk   int
	pos    int64
	length int64
	write  bool
}

// Layout maps a logical byte range to the member drives, appending the
// transfers to ops. Exposed for the property tests that verify completeness
// and disjointness of the mapping.
//
// Logical unit u = off/StripeUnit lives in row r = u/DataWidth. Within a
// row, parity occupies drive (Disks-1 - r%Disks + Disks) % Disks (rotating,
// RAID-5 left-symmetric style) and data units fill the remaining drives in
// order.
func (a *Array) Layout(ops []unitOp, off, length int64) []unitOp {
	su := a.cfg.StripeUnit
	dw := int64(a.DataWidth())
	for length > 0 {
		u := off / su
		within := off % su
		chunk := su - within
		if chunk > length {
			chunk = length
		}
		row := u / dw
		idxInRow := int(u % dw)
		parity := a.parityDisk(row)
		diskIdx := idxInRow
		if diskIdx >= parity {
			diskIdx++
		}
		ops = append(ops, unitOp{
			disk:   diskIdx,
			pos:    row*su + within,
			length: chunk,
		})
		off += chunk
		length -= chunk
	}
	return ops
}

// parityDisk returns the drive holding parity for a stripe row.
func (a *Array) parityDisk(row int64) int {
	n := int64(a.cfg.Disks)
	return int((n - 1 - row%n + n) % n)
}

// parityOps appends the parity (and RMW) traffic for a write to ops.
func (a *Array) parityOps(ops []unitOp, off, length int64) []unitOp {
	su := a.cfg.StripeUnit
	row0 := off / a.RowSize()
	rowN := (off + length - 1) / a.RowSize()
	for row := row0; row <= rowN; row++ {
		rowStart := row * a.RowSize()
		rowEnd := rowStart + a.RowSize()
		covStart, covEnd := off, off+length
		if covStart < rowStart {
			covStart = rowStart
		}
		if covEnd > rowEnd {
			covEnd = rowEnd
		}
		covered := covEnd - covStart
		parity := a.parityDisk(row)
		full := covered == a.RowSize()
		// New parity is always written.
		ops = append(ops, unitOp{disk: parity, pos: row * su, length: su, write: true})
		if !full && !a.cfg.DisableSmallWritePenalty {
			// Read-modify-write: read old parity, and re-read the written
			// range (old data) to compute the delta.
			ops = append(ops, unitOp{disk: parity, pos: row * su, length: su})
			ops = a.Layout(ops, covStart, covered)
		}
	}
	return ops
}

// degradeReads appends ops to out, rewriting each op that touches the
// failed drive into reconstruction reads of every surviving drive in the
// affected rows.
func (a *Array) degradeReads(out, ops []unitOp) []unitOp {
	failed := -1
	for i, d := range a.disks {
		if d.Failed() {
			failed = i
			break
		}
	}
	for _, op := range ops {
		if op.disk != failed {
			out = append(out, op)
			continue
		}
		for i := range a.disks {
			if i == failed {
				continue
			}
			out = append(out, unitOp{disk: i, pos: op.pos, length: op.length})
		}
	}
	return out
}

// ReadThenSpan transfers a logical byte range from the array as an event
// chain, calling done(err) when the slowest member drive finishes. Reads on
// a group with one failed drive are reconstructed from the surviving drives
// (degraded mode); two failures return ErrFailed. The emitted DISK_read
// record (if a tracer is attached) is parented under the caller's span.
func (a *Array) ReadThenSpan(off, length int64, parent uint64, done func(error)) {
	c := a.newOp("DISK_read", off, length, parent, done)
	if err := a.checkHealth(); err != nil {
		c.complete(err)
		return
	}
	c.ops = a.Layout(c.ops[:0], off, length)
	if a.failedCount() == 1 {
		c.spare = a.degradeReads(c.spare[:0], c.ops)
		c.ops, c.spare = c.spare, c.ops
	}
	c.run()
}

// WriteThenSpan transfers a logical byte range to the array as an event
// chain, adding parity I/O: full stripe rows write parity once; partial rows
// pay read-modify-write (read old data + old parity, write new data + new
// parity) unless the ablation flag disables it. The emitted DISK_write
// record is parented under the caller's span.
func (a *Array) WriteThenSpan(off, length int64, parent uint64, done func(error)) {
	c := a.newOp("DISK_write", off, length, parent, done)
	if err := a.checkHealth(); err != nil {
		c.complete(err)
		return
	}
	c.ops = a.Layout(c.ops[:0], off, length)
	for i := range c.ops {
		c.ops[i].write = true
	}
	c.ops = a.parityOps(c.ops, off, length)
	c.run()
}

// arrayOp is one in-flight array call: its planned member transfers, one
// batch per drive and the join counter. It is pooled on the array with its
// stages bound once, and its planning buffers are reused, so a call
// allocates nothing once the free list covers the calls in flight. When a
// tracer is attached it also carries the call's ClassDiskIO span (a span of
// 0 means untraced: untraced arrays allocate no span and pay nothing).
type arrayOp struct {
	a       *Array
	ops     []unitOp // the plan, in submission order
	spare   []unitOp // second planning buffer for degraded reads
	grouped []unitOp // the plan grouped by drive; batches slice into it
	batches []driveBatch

	remaining int // busy drives still running
	firstErr  error
	done      func(error)

	name        string
	off, length int64
	span        uint64
	parent      uint64
	start       sim.Time

	finishFn func()
	next     *arrayOp // free-list link
}

// driveBatch is the serial chain of one drive's transfers within a call.
type driveBatch struct {
	c   *arrayOp
	d   *Disk
	ops []unitOp
	n   int // ops counted while grouping
	i   int // next op to start

	advanceFn func()
	stepFn    func()
}

// newOp takes a call from the free list (allocating and binding one when it
// is empty) and, when a tracer is attached, opens the call's span.
func (a *Array) newOp(name string, off, length int64, parent uint64, done func(error)) *arrayOp {
	c := a.free
	if c != nil {
		a.free = c.next
		c.next = nil
	} else {
		c = &arrayOp{a: a, batches: make([]driveBatch, len(a.disks))}
		c.finishFn = c.finish
		for i := range c.batches {
			b := &c.batches[i]
			b.c, b.d = c, a.disks[i]
			b.advanceFn = b.advance
			b.stepFn = b.step
		}
	}
	c.name, c.off, c.length, c.parent, c.done = name, off, length, parent, done
	if a.tracer != nil {
		c.span = a.env.NextSpanID()
		c.start = a.env.Now()
	}
	return c
}

// run groups the planned ops per drive and runs the drives in parallel: one
// event chain per busy member drive, joined by a counter. It schedules one
// kickoff event per drive batch in drive-index order, then one completion
// event after the last batch; every pinned schedule depends on that event
// count and order. Errors are recorded per operation as they surface, and
// the call completes with the first.
func (c *arrayOp) run() {
	// A counting sort by drive: stable, so each batch keeps plan order.
	for _, op := range c.ops {
		c.batches[op.disk].n++
	}
	if cap(c.grouped) < len(c.ops) {
		c.grouped = make([]unitOp, 0, len(c.ops))
	}
	at := 0
	c.remaining = 0
	for i := range c.batches {
		b := &c.batches[i]
		b.ops = c.grouped[at : at : at+b.n]
		at += b.n
		if b.n > 0 {
			c.remaining++
		}
		b.n, b.i = 0, 0
	}
	for _, op := range c.ops {
		b := &c.batches[op.disk]
		b.ops = append(b.ops, op)
	}
	if c.remaining == 0 {
		c.complete(nil)
		return
	}
	for i := range c.batches {
		if b := &c.batches[i]; len(b.ops) > 0 {
			c.a.env.After(0, b.advanceFn)
		}
	}
}

// advance starts the batch's next transfer, recording ErrFailed for each
// one its failed drive refuses, or joins the call when the batch is done.
func (b *driveBatch) advance() {
	for ; b.i < len(b.ops); b.i++ {
		op := b.ops[b.i]
		if b.d.accessThen(op.pos, op.length, op.write, b.stepFn) {
			return
		}
		if b.c.firstErr == nil {
			b.c.firstErr = ErrFailed
		}
	}
	c := b.c
	c.remaining--
	if c.remaining == 0 {
		c.a.env.After(0, c.finishFn)
	}
}

// step starts the next transfer once one finishes.
func (b *driveBatch) step() {
	b.i++
	b.advance()
}

func (c *arrayOp) finish() { c.complete(c.firstErr) }

// complete ends the call with err: it emits the call's ClassDiskIO record
// when traced, returns c to the free list and calls done.
func (c *arrayOp) complete(err error) {
	a := c.a
	if c.span != 0 {
		ret := "0"
		if err != nil {
			ret = "-1 " + err.Error()
		}
		a.tracer(&trace.Record{
			Time:   c.start,
			Dur:    a.env.Now() - c.start,
			Node:   a.node,
			Rank:   -1,
			Class:  trace.ClassDiskIO,
			Name:   c.name,
			Ret:    ret,
			Offset: c.off,
			Bytes:  c.length,
			Span:   c.span,
			Parent: c.parent,
		})
	}
	done := c.done
	c.done, c.firstErr, c.span = nil, nil, 0
	c.next, a.free = a.free, c
	done(err)
}

// failedCount reports the number of failed member drives.
func (a *Array) failedCount() int {
	n := 0
	for _, d := range a.disks {
		if d.Failed() {
			n++
		}
	}
	return n
}

// checkHealth returns ErrFailed when the group cannot serve I/O.
func (a *Array) checkHealth() error {
	if a.failedCount() >= 2 {
		return fmt.Errorf("raid5 group lost %d drives: %w", a.failedCount(), ErrFailed)
	}
	return nil
}

// TotalOps sums member-drive operation counts (stats for analysis).
func (a *Array) TotalOps() int64 {
	var n int64
	for _, d := range a.disks {
		n += d.Ops
	}
	return n
}
