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
	head    *sim.Resource
	nextSeq int64 // next sequential byte position; access elsewhere seeks

	failed bool

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
	return &Disk{cfg: cfg, head: sim.NewResource(env, 1), nextSeq: -1}
}

// Fail marks the drive failed; subsequent operations return ErrFailed.
func (d *Disk) Fail() { d.failed = true }

// Failed reports whether the drive has failed.
func (d *Disk) Failed() bool { return d.failed }

// Repair returns a failed drive to service.
func (d *Disk) Repair() { d.failed = false }

// access performs one contiguous transfer at the given byte position.
func (d *Disk) access(p *sim.Proc, pos, length int64, write bool) error {
	if d.failed {
		return ErrFailed
	}
	cost := d.cfg.PerOp
	if pos != d.nextSeq {
		cost += d.cfg.Seek
		d.Seeks++
	}
	cost += sim.DurationOf(length, d.cfg.BandwidthBps)
	d.head.HoldFor(p, cost)
	d.nextSeq = pos + length
	d.Ops++
	if write {
		d.BytesWritten += length
	} else {
		d.BytesRead += length
	}
	return nil
}

// accessThen is the event-chain form of access, for callers without a
// process (RAID member transfers, the PFS metadata journal): the same
// transfer, calling done(err) when the head releases. The cost (including
// the seek decision against nextSeq) is computed at call time, before the
// head is acquired, exactly as access computes it before HoldFor.
func (d *Disk) accessThen(pos, length int64, write bool, done func(error)) {
	if d.failed {
		done(ErrFailed)
		return
	}
	cost := d.cfg.PerOp
	if pos != d.nextSeq {
		cost += d.cfg.Seek
		d.Seeks++
	}
	cost += sim.DurationOf(length, d.cfg.BandwidthBps)
	d.head.HoldForThen(cost, func() {
		d.nextSeq = pos + length
		d.Ops++
		if write {
			d.BytesWritten += length
		} else {
			d.BytesRead += length
		}
		done(nil)
	})
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
// event chain, calling done(err) on completion.
func (d *Disk) WriteThen(pos, length int64, done func(error)) {
	d.accessThen(pos, length, true, done)
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
}

// SetTracer installs (or, with nil fn, removes) the array-call tracer.
// node labels emitted records with the owning server's node name.
func (a *Array) SetTracer(node string, fn func(*trace.Record)) {
	a.node, a.tracer = node, fn
}

// traceDone wraps an array call's completion to emit one ClassDiskIO record
// spanning the whole call. With no tracer attached it is the identity, so
// untraced arrays allocate no span and pay nothing.
func (a *Array) traceDone(name string, off, length int64, parent uint64, done func(error)) func(error) {
	if a.tracer == nil {
		return done
	}
	span := a.env.NextSpanID()
	start := a.env.Now()
	return func(err error) {
		ret := "0"
		if err != nil {
			ret = "-1 " + err.Error()
		}
		a.tracer(&trace.Record{
			Time:   start,
			Dur:    a.env.Now() - start,
			Node:   a.node,
			Rank:   -1,
			Class:  trace.ClassDiskIO,
			Name:   name,
			Ret:    ret,
			Offset: off,
			Bytes:  length,
			Span:   span,
			Parent: parent,
		})
		done(err)
	}
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

// Config returns the array configuration.
func (a *Array) Config() ArrayConfig { return a.cfg }

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

// Layout maps a logical byte range to the member drives. Exposed for the
// property tests that verify completeness and disjointness of the mapping.
//
// Logical unit u = off/StripeUnit lives in row r = u/DataWidth. Within a
// row, parity occupies drive (Disks-1 - r%Disks + Disks) % Disks (rotating,
// RAID-5 left-symmetric style) and data units fill the remaining drives in
// order.
func (a *Array) Layout(off, length int64) []unitOp {
	var ops []unitOp
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

// parityOps plans the parity (and RMW) traffic for a write.
func (a *Array) parityOps(off, length int64) []unitOp {
	var ops []unitOp
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
			for _, ro := range a.Layout(covStart, covered) {
				ops = append(ops, ro)
			}
		}
	}
	return ops
}

// degradeReads rewrites ops touching the failed drive into reconstruction
// reads of every surviving drive in the affected rows.
func (a *Array) degradeReads(ops []unitOp) []unitOp {
	failed := -1
	for i, d := range a.disks {
		if d.Failed() {
			failed = i
			break
		}
	}
	var out []unitOp
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
	done = a.traceDone("DISK_read", off, length, parent, done)
	if err := a.checkHealth(); err != nil && errors.Is(err, ErrFailed) {
		done(err)
		return
	}
	ops := a.Layout(off, length)
	degraded := a.failedCount() == 1
	if degraded {
		ops = a.degradeReads(ops)
	}
	a.executeThen(ops, done)
}

// WriteThenSpan transfers a logical byte range to the array as an event
// chain, adding parity I/O: full stripe rows write parity once; partial rows
// pay read-modify-write (read old data + old parity, write new data + new
// parity) unless the ablation flag disables it. The emitted DISK_write
// record is parented under the caller's span.
func (a *Array) WriteThenSpan(off, length int64, parent uint64, done func(error)) {
	done = a.traceDone("DISK_write", off, length, parent, done)
	if err := a.checkHealth(); err != nil {
		done(err)
		return
	}
	ops := a.Layout(off, length)
	for i := range ops {
		ops[i].write = true
	}
	ops = append(ops, a.parityOps(off, length)...)
	a.executeThen(ops, done)
}

// executeThen groups planned ops per drive and runs the drives in parallel:
// one event chain per busy member drive, joined by a counter. It schedules
// one kickoff event per drive batch in drive-index order, then one
// completion event after the last batch; every pinned schedule depends on
// that event count and order. Errors are recorded per operation as they
// surface, and done gets the first.
func (a *Array) executeThen(ops []unitOp, done func(error)) {
	perDisk := make(map[int][]unitOp)
	for _, op := range ops {
		perDisk[op.disk] = append(perDisk[op.disk], op)
	}
	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	remaining := 0
	for idx := 0; idx < a.cfg.Disks; idx++ {
		if len(perDisk[idx]) > 0 {
			remaining++
		}
	}
	if remaining == 0 {
		done(nil)
		return
	}
	finish := func() {
		remaining--
		if remaining == 0 {
			a.env.After(0, func() { done(firstErr) })
		}
	}
	for idx := 0; idx < a.cfg.Disks; idx++ {
		batch := perDisk[idx]
		if len(batch) == 0 {
			continue
		}
		d := a.disks[idx]
		a.env.After(0, func() { a.runBatchThen(d, batch, record, finish) })
	}
}

// runBatchThen runs one drive's planned ops serially as an event chain,
// recording each error as it surfaces and calling done when the batch
// completes.
func (a *Array) runBatchThen(d *Disk, batch []unitOp, record func(error), done func()) {
	var step func(i int)
	step = func(i int) {
		if i == len(batch) {
			done()
			return
		}
		op := batch[i]
		d.accessThen(op.pos, op.length, op.write, func(err error) {
			record(err)
			step(i + 1)
		})
	}
	step(0)
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
