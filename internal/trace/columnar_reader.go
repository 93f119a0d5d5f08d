package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"iotaxo/internal/sim"
)

// --- sequential source ---

// ColumnarSource decodes a v2 stream front to back: the Source adapter used
// by OpenAuto and any consumer without random access. It verifies every
// block CRC, and when the stream carries a footer index it verifies that
// the index matches the blocks actually read and that the trailer closes
// the file; an index-less stream (a writer that Flushed but never Closed)
// simply ends at the last data block.
type ColumnarSource struct {
	r        io.Reader
	flags    byte
	started  bool
	off      int64
	stored   bytes.Buffer  // the current block's payload as stored
	inflated bytes.Buffer  // its decompressed payload on compressed streams
	fr       io.ReadCloser // created on the first compressed block, Reset per block
	rows     []int         // 0, 1, 2, ...: every row of a block
	cur      []Record
	curIdx   int
	blocks   int64
	err      error
}

// NewColumnarSource wraps r for sequential decoding.
func NewColumnarSource(r io.Reader) *ColumnarSource { return &ColumnarSource{r: r} }

// Flags returns the stream flags after the first Next call.
func (c *ColumnarSource) Flags() byte { return c.flags }

// BlocksRead reports the number of data blocks decoded so far.
func (c *ColumnarSource) BlocksRead() int64 { return c.blocks }

// readFull reads exactly len(b) bytes, tracking the stream offset.
func (c *ColumnarSource) readFull(b []byte) error {
	n, err := io.ReadFull(c.r, b)
	c.off += int64(n)
	return err
}

func (c *ColumnarSource) readHeader() error {
	if c.started {
		return nil
	}
	c.started = true
	var hdr [columnarHeaderLen]byte
	if err := c.readFull(hdr[:]); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:8], columnarMagic[:]) {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	c.flags = hdr[8]
	return nil
}

// nextBlock reads and decodes the next data block into c.cur, or returns
// io.EOF after validating the footer (when present) and end of stream.
func (c *ColumnarSource) nextBlock() error {
	var hb [blockHeaderLen]byte
	start := c.off
	if err := c.readFull(hb[:]); err != nil {
		if err == io.EOF {
			return io.EOF // index-less stream ends at a block boundary
		}
		return fmt.Errorf("%w: short block header", ErrCorrupt)
	}
	h, err := parseBlockHeader(hb[:])
	if err != nil {
		return err
	}
	// Copy rather than allocate payloadLen up front: a corrupt length
	// prefix must not cost more memory than the bytes actually present.
	c.stored.Reset()
	n, err := io.CopyN(&c.stored, c.r, int64(h.payloadLen))
	c.off += n
	if err != nil {
		return fmt.Errorf("%w: truncated block", ErrCorrupt)
	}
	stored := c.stored.Bytes()
	if blockCRC(hb[:], stored) != h.crc {
		return fmt.Errorf("%w: block CRC mismatch", ErrCorrupt)
	}
	if h.kind == blockIndex {
		return c.finish(h, stored, start)
	}
	payload := stored
	if c.flags&FlagCompressed != 0 {
		src := bytes.NewReader(stored)
		if c.fr == nil {
			c.fr = flate.NewReader(src)
		} else if err := c.fr.(flate.Resetter).Reset(src, nil); err != nil {
			return fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
		}
		c.inflated.Reset()
		if _, err := c.inflated.ReadFrom(c.fr); err != nil {
			return fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
		}
		payload = c.inflated.Bytes()
	}
	v, err := parseBlockView(payload, h)
	if err != nil {
		return err
	}
	for len(c.rows) < v.Len() {
		c.rows = append(c.rows, len(c.rows))
	}
	recs, err := materializeRows(v, c.rows[:v.Len()], c.cur)
	if err != nil {
		return err
	}
	c.cur, c.curIdx = recs, 0
	c.blocks++
	return nil
}

// finish validates the footer index against the blocks read, consumes the
// trailer, and requires end of stream.
func (c *ColumnarSource) finish(h blockHeader, payload []byte, indexOff int64) error {
	metas, err := parseIndexPayload(payload, columnarHeaderLen, indexOff)
	if err != nil {
		return err
	}
	if int64(len(metas)) != c.blocks {
		return fmt.Errorf("%w: index lists %d blocks, stream has %d", ErrCorrupt, len(metas), c.blocks)
	}
	var trailer [trailerLen]byte
	if err := c.readFull(trailer[:]); err != nil {
		return fmt.Errorf("%w: short trailer", ErrCorrupt)
	}
	framed := int64(binary.LittleEndian.Uint32(trailer[0:]))
	if framed != int64(blockHeaderLen+len(payload)) || !bytes.Equal(trailer[4:], columnarTail[:]) {
		return fmt.Errorf("%w: bad trailer", ErrCorrupt)
	}
	var one [1]byte
	if _, err := io.ReadFull(c.r, one[:]); err != io.EOF {
		return fmt.Errorf("%w: data after trailer", ErrCorrupt)
	}
	return io.EOF
}

// Next returns the next record or io.EOF.
func (c *ColumnarSource) Next() (Record, error) {
	if c.err != nil {
		return Record{}, c.err
	}
	if err := c.readHeader(); err != nil {
		c.err = err
		return Record{}, err
	}
	for c.curIdx >= len(c.cur) {
		if err := c.nextBlock(); err != nil {
			c.err = err
			return Record{}, err
		}
	}
	rec := c.cur[c.curIdx]
	c.curIdx++
	return rec, nil
}

// ReadAll drains the stream.
func (c *ColumnarSource) ReadAll() ([]Record, error) {
	var out []Record
	for {
		r, err := c.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// --- query ---

// Query is a predicate pushed down into the columnar scan: a time window,
// a rank range, and an event-class set, all inclusive. Block pruning uses
// the index ranges; rows inside surviving blocks are filtered on the three
// filter columns alone.
type Query struct {
	TimeMin, TimeMax sim.Time
	RankMin, RankMax int
	// Classes is a bitmask over EventClass (bit i = EventClass(i)); zero
	// means every class.
	Classes uint8

	// Stats predicates, pruned via the footer index's per-block min/max
	// statistics. Blocks from files written before the stats extension
	// (HasStats == false) are conservatively decoded.
	OffsetMin, OffsetMax int64
	BytesMin             int64
	SpanMin, SpanMax     uint64
}

// MatchAll returns the query matching every record.
func MatchAll() Query {
	return Query{
		TimeMin: sim.Time(math.MinInt64), TimeMax: sim.Time(math.MaxInt64),
		RankMin: math.MinInt32, RankMax: math.MaxInt32,
		OffsetMin: math.MinInt64, OffsetMax: math.MaxInt64,
		BytesMin: math.MinInt64,
		SpanMin:  0, SpanMax: math.MaxUint64,
	}
}

// WithWindow restricts the query to records with lo <= Time <= hi.
func (q Query) WithWindow(lo, hi sim.Time) Query {
	q.TimeMin, q.TimeMax = lo, hi
	return q
}

// WithRanks restricts the query to records with lo <= Rank <= hi.
func (q Query) WithRanks(lo, hi int) Query {
	q.RankMin, q.RankMax = lo, hi
	return q
}

// WithClasses restricts the query to the given event classes.
func (q Query) WithClasses(cs ...EventClass) Query {
	for _, c := range cs {
		q.Classes |= 1 << uint(c)
	}
	return q
}

// WithOffsetRange restricts the query to records with lo <= Offset <= hi.
func (q Query) WithOffsetRange(lo, hi int64) Query {
	q.OffsetMin, q.OffsetMax = lo, hi
	return q
}

// WithMinBytes restricts the query to records moving at least n bytes.
func (q Query) WithMinBytes(n int64) Query {
	q.BytesMin = n
	return q
}

// WithSpanRange restricts the query to records with lo <= Span <= hi.
func (q Query) WithSpanRange(lo, hi uint64) Query {
	q.SpanMin, q.SpanMax = lo, hi
	return q
}

// constrainsStats reports whether any stats predicate (offset/bytes/span) is
// tighter than match-all.
func (q Query) constrainsStats() bool {
	return q.OffsetMin != math.MinInt64 || q.OffsetMax != math.MaxInt64 ||
		q.BytesMin != math.MinInt64 ||
		q.SpanMin != 0 || q.SpanMax != math.MaxUint64
}

// classOK reports whether the class passes the query's class set.
func (q Query) classOK(c EventClass) bool {
	return q.Classes == 0 || q.Classes&(1<<uint(c)) != 0
}

// Matches reports whether a materialized record satisfies the query — the
// reference semantics every pushdown path must agree with.
func (q Query) Matches(r *Record) bool {
	return r.Time >= q.TimeMin && r.Time <= q.TimeMax &&
		r.Rank >= q.RankMin && r.Rank <= q.RankMax && q.classOK(r.Class) &&
		r.Offset >= q.OffsetMin && r.Offset <= q.OffsetMax &&
		r.Bytes >= q.BytesMin &&
		r.Span >= q.SpanMin && r.Span <= q.SpanMax
}

// matchesLegacyBlock is the time/rank/class half of MatchesBlock — the
// pruning available before the footer stats extension existed.
func (q Query) matchesLegacyBlock(m BlockMeta) bool {
	return m.MaxTime >= q.TimeMin && m.MinTime <= q.TimeMax &&
		m.MaxRank >= q.RankMin && m.MinRank <= q.RankMax &&
		(q.Classes == 0 || q.Classes&m.ClassMask != 0)
}

// MatchesBlock reports whether a block's index ranges can contain a
// matching record; blocks failing it are skipped without being read. Blocks
// without stats (pre-extension files) are never pruned by stats predicates.
func (q Query) MatchesBlock(m BlockMeta) bool {
	if !q.matchesLegacyBlock(m) {
		return false
	}
	if m.HasStats {
		if m.MaxOffset < q.OffsetMin || m.MinOffset > q.OffsetMax {
			return false
		}
		if m.MaxBytes < q.BytesMin {
			return false
		}
		if m.MaxSpan < q.SpanMin || m.MinSpan > q.SpanMax {
			return false
		}
	}
	return true
}

// containsBlock reports whether every record in the block matches, letting
// the scan skip even the filter-column decode.
func (q Query) containsBlock(m BlockMeta) bool {
	if q.constrainsStats() {
		if !m.HasStats {
			return false
		}
		if m.MinOffset < q.OffsetMin || m.MaxOffset > q.OffsetMax ||
			m.MinBytes < q.BytesMin ||
			m.MinSpan < q.SpanMin || m.MaxSpan > q.SpanMax {
			return false
		}
	}
	return m.MinTime >= q.TimeMin && m.MaxTime <= q.TimeMax &&
		m.MinRank >= q.RankMin && m.MaxRank <= q.RankMax &&
		(q.Classes == 0 || m.ClassMask&^q.Classes == 0)
}

// --- indexed reader ---

// ColumnarReader serves indexed queries over a Closed v2 trace through an
// io.ReaderAt: it loads only the stream header and the footer index up
// front, then Scan reads and decodes exactly the blocks a query's ranges
// admit, fanned out over a worker pool.
type ColumnarReader struct {
	r     io.ReaderAt
	size  int64
	flags byte
	index []BlockMeta
}

// NewColumnarReader opens a complete (Closed) v2 trace of the given size.
// Streams without a footer index — truncated files, or writers that never
// Closed — are rejected with ErrCorrupt; they remain readable with
// ColumnarSource.
func NewColumnarReader(r io.ReaderAt, size int64) (*ColumnarReader, error) {
	minSize := int64(columnarHeaderLen + blockHeaderLen + 1 + trailerLen)
	if size < minSize {
		return nil, fmt.Errorf("%w: too short for a columnar trace", ErrCorrupt)
	}
	var hdr [columnarHeaderLen]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:8], columnarMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	var trailer [trailerLen]byte
	if _, err := r.ReadAt(trailer[:], size-trailerLen); err != nil {
		return nil, fmt.Errorf("%w: short trailer: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(trailer[4:], columnarTail[:]) {
		return nil, fmt.Errorf("%w: missing trailer (stream not Closed?)", ErrCorrupt)
	}
	framed := int64(binary.LittleEndian.Uint32(trailer[0:]))
	idxOff := size - trailerLen - framed
	if framed < blockHeaderLen+1 || idxOff < columnarHeaderLen {
		return nil, fmt.Errorf("%w: bad index length", ErrCorrupt)
	}
	buf := make([]byte, framed)
	if _, err := r.ReadAt(buf, idxOff); err != nil {
		return nil, fmt.Errorf("%w: short index block: %v", ErrCorrupt, err)
	}
	h, err := parseBlockHeader(buf[:blockHeaderLen])
	if err != nil {
		return nil, err
	}
	payload := buf[blockHeaderLen:]
	if h.kind != blockIndex || h.payloadLen != len(payload) {
		return nil, fmt.Errorf("%w: bad index block", ErrCorrupt)
	}
	if blockCRC(buf[:blockHeaderLen], payload) != h.crc {
		return nil, fmt.Errorf("%w: index CRC mismatch", ErrCorrupt)
	}
	index, err := parseIndexPayload(payload, columnarHeaderLen, idxOff)
	if err != nil {
		return nil, err
	}
	return &ColumnarReader{r: r, size: size, flags: hdr[8], index: index}, nil
}

// Flags returns the stream flags.
func (c *ColumnarReader) Flags() byte { return c.flags }

// Index returns the footer block index; callers must not mutate it.
func (c *ColumnarReader) Index() []BlockMeta { return c.index }

// NumBlocks reports the number of data blocks in the trace.
func (c *ColumnarReader) NumBlocks() int { return len(c.index) }

// NumRecords reports the number of records in the trace, from the index.
func (c *ColumnarReader) NumRecords() int64 {
	var n int64
	for _, m := range c.index {
		n += int64(m.Count)
	}
	return n
}

// ScanStats reports what a scan touched; BlocksDecoded/BlocksTotal is the
// fraction of the file the index failed to prune.
type ScanStats struct {
	BlocksTotal    int   // data blocks in the trace
	BlocksDecoded  int   // blocks read and decoded for this query
	RecordsMatched int64 // rows passing the full predicate
	BytesRead      int64 // file bytes fetched
	// BlocksPrunedByStats counts blocks the legacy time/rank/class pruning
	// would have decoded but the footer offset/bytes/span statistics skipped.
	BlocksPrunedByStats int
}

// scanJob is one matched block moving through the scan pool.
type scanJob struct {
	meta  BlockMeta
	view  *BlockView
	rows  []int // matching row indexes
	recs  []Record
	err   error
	ready chan struct{}
}

// scanEngine fans matched blocks out to workers that read, verify, decode,
// and row-filter them, delivering results in file order.
type scanEngine struct {
	r           io.ReaderAt
	q           Query
	compressed  bool
	materialize bool

	order    chan *scanJob
	jobs     chan *scanJob
	cancel   chan struct{}
	stopOnce sync.Once

	mu    sync.Mutex
	stats ScanStats
}

// defaultWorkers resolves a worker-count knob: n if positive, else
// GOMAXPROCS.
func defaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// newScanEngine starts the pool over the blocks matching q.
func (c *ColumnarReader) newScanEngine(q Query, workers int, materialize bool) *scanEngine {
	workers = defaultWorkers(workers)
	e := &scanEngine{
		r:           c.r,
		q:           q,
		compressed:  c.flags&FlagCompressed != 0,
		materialize: materialize,
		order:       make(chan *scanJob, 2*workers),
		jobs:        make(chan *scanJob, workers),
		cancel:      make(chan struct{}),
	}
	var matched []BlockMeta
	for _, m := range c.index {
		if q.MatchesBlock(m) {
			matched = append(matched, m)
		} else if q.matchesLegacyBlock(m) {
			e.stats.BlocksPrunedByStats++
		}
	}
	e.stats.BlocksTotal = len(c.index)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	go e.feed(matched)
	return e
}

// feed enqueues matched blocks in file order.
func (e *scanEngine) feed(matched []BlockMeta) {
	defer close(e.jobs)
	defer close(e.order)
	for _, m := range matched {
		job := &scanJob{meta: m, ready: make(chan struct{})}
		select {
		case e.order <- job:
		case <-e.cancel:
			return
		}
		select {
		case e.jobs <- job:
		case <-e.cancel:
			// Queued for the consumer but will never reach a worker; resolve
			// it here or a post-Close drain would block on ready forever.
			close(job.ready)
			return
		}
	}
}

// worker processes blocks, reusing one flate reader and scratch buffer.
func (e *scanEngine) worker() {
	var fr io.ReadCloser
	var db bytes.Buffer
	if e.compressed {
		fr = flate.NewReader(bytes.NewReader(nil))
	}
	for job := range e.jobs {
		job.view, job.rows, job.err = e.decode(job.meta, fr, &db)
		if job.err == nil && e.materialize {
			var buf []Record
			if slab, ok := recordSlabs.Get().(*[]Record); ok {
				buf = *slab
			}
			job.recs, job.err = materializeRows(job.view, job.rows, buf)
		}
		if job.err == nil {
			e.mu.Lock()
			e.stats.BlocksDecoded++
			e.stats.RecordsMatched += int64(len(job.rows))
			e.stats.BytesRead += job.meta.Len
			e.mu.Unlock()
		}
		close(job.ready)
	}
}

// decode reads one block, verifies it against its index entry, and returns
// the view plus the rows matching the query.
func (e *scanEngine) decode(m BlockMeta, fr io.ReadCloser, db *bytes.Buffer) (*BlockView, []int, error) {
	buf := make([]byte, m.Len)
	if _, err := e.r.ReadAt(buf, m.Offset); err != nil {
		return nil, nil, fmt.Errorf("%w: short block read: %v", ErrCorrupt, err)
	}
	h, err := parseBlockHeader(buf[:blockHeaderLen])
	if err != nil {
		return nil, nil, err
	}
	if h.kind != blockData || h.count != m.Count || int64(blockHeaderLen+h.payloadLen) != m.Len {
		return nil, nil, fmt.Errorf("%w: block disagrees with index", ErrCorrupt)
	}
	stored := buf[blockHeaderLen:]
	if blockCRC(buf[:blockHeaderLen], stored) != h.crc {
		return nil, nil, fmt.Errorf("%w: block CRC mismatch", ErrCorrupt)
	}
	payload := stored
	if e.compressed {
		if err := fr.(flate.Resetter).Reset(bytes.NewReader(stored), nil); err != nil {
			return nil, nil, fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
		}
		db.Reset()
		if _, err := db.ReadFrom(fr); err != nil {
			return nil, nil, fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
		}
		payload = append([]byte(nil), db.Bytes()...)
	}
	v, err := parseBlockView(payload, h)
	if err != nil {
		return nil, nil, err
	}
	rows, err := matchRows(v, m, e.q)
	if err != nil {
		return nil, nil, err
	}
	return v, rows, nil
}

// matchRows filters a block's rows against the query using only the filter
// columns; fully-contained blocks skip even that decode.
func matchRows(v *BlockView, m BlockMeta, q Query) ([]int, error) {
	if q.containsBlock(m) {
		rows := make([]int, v.Len())
		for i := range rows {
			rows[i] = i
		}
		return rows, nil
	}
	times, err := v.Times()
	if err != nil {
		return nil, err
	}
	ranks, err := v.Ranks()
	if err != nil {
		return nil, err
	}
	classes, err := v.Classes()
	if err != nil {
		return nil, err
	}
	// Stats filter columns decode only when the query constrains them.
	var offsets, bytesc, spans []int64
	if q.OffsetMin != math.MinInt64 || q.OffsetMax != math.MaxInt64 {
		if offsets, err = v.Offsets(); err != nil {
			return nil, err
		}
	}
	if q.BytesMin != math.MinInt64 {
		if bytesc, err = v.Bytes(); err != nil {
			return nil, err
		}
	}
	if q.SpanMin != 0 || q.SpanMax != math.MaxUint64 {
		if spans, err = v.Spans(); err != nil {
			return nil, err
		}
	}
	var rows []int
	for i := 0; i < v.Len(); i++ {
		if sim.Time(times[i]) < q.TimeMin || sim.Time(times[i]) > q.TimeMax ||
			int(ranks[i]) < q.RankMin || int(ranks[i]) > q.RankMax ||
			!q.classOK(classes[i]) {
			continue
		}
		if offsets != nil && (offsets[i] < q.OffsetMin || offsets[i] > q.OffsetMax) {
			continue
		}
		if bytesc != nil && bytesc[i] < q.BytesMin {
			continue
		}
		if spans != nil && (uint64(spans[i]) < q.SpanMin || uint64(spans[i]) > q.SpanMax) {
			continue
		}
		rows = append(rows, i)
	}
	return rows, nil
}

// release stops the feeder and lets the pool drain.
func (e *scanEngine) release() {
	e.stopOnce.Do(func() { close(e.cancel) })
}

// snapshot returns the stats so far.
func (e *scanEngine) snapshot() ScanStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// recordSlabs recycles the record slices scans materialize blocks into. A
// scan's consumer hands a block's slice back once it has returned the last
// of its records (as copies), so scans in steady state reuse the slices of
// earlier blocks instead of allocating and collecting a slice per block.
var recordSlabs sync.Pool // of *[]Record

// ColumnarScan is the record stream of one indexed query: a Source yielding
// matching records in file order, decoded block-parallel ahead of the
// consumer. Close releases the pool early; draining to io.EOF also does.
type ColumnarScan struct {
	eng    *scanEngine
	cur    []Record
	curIdx int
	err    error
}

// Scan runs a query with `workers` decode goroutines (<=0 selects
// GOMAXPROCS). Blocks whose index ranges cannot match are never read.
func (c *ColumnarReader) Scan(q Query, workers int) *ColumnarScan {
	eng := c.newScanEngine(q, workers, true)
	s := &ColumnarScan{eng: eng}
	// The cleanup references the engine, not the scan, so an abandoned scan
	// still collects and releases its pool.
	runtime.AddCleanup(s, func(e *scanEngine) { e.release() }, eng)
	return s
}

// Next returns the next matching record, io.EOF at end of scan, or the
// corruption error of the first bad block.
func (s *ColumnarScan) Next() (Record, error) {
	for {
		if s.curIdx < len(s.cur) {
			rec := s.cur[s.curIdx]
			s.curIdx++
			return rec, nil
		}
		if s.cur != nil {
			recs := s.cur
			recordSlabs.Put(&recs)
			s.cur = nil
		}
		if s.err != nil {
			return Record{}, s.err
		}
		job, ok := <-s.eng.order
		if !ok {
			s.err = io.EOF
			s.release()
			return Record{}, io.EOF
		}
		<-job.ready
		if job.err != nil {
			s.err = job.err
			s.release()
			return Record{}, s.err
		}
		s.cur, s.curIdx = job.recs, 0
	}
}

// release stops the engine.
func (s *ColumnarScan) release() { s.eng.release() }

// Close stops the scan and releases the worker pool; safe at any time.
func (s *ColumnarScan) Close() error {
	s.release()
	return nil
}

// Stats reports what the scan touched; complete once Next returned io.EOF.
func (s *ColumnarScan) Stats() ScanStats { return s.eng.snapshot() }

// ScanViews runs a query and hands each surviving block's view plus its
// matching row indexes to fn, in file order on the caller's goroutine,
// while workers decode ahead. This is the aggregate fast path: fn reads
// only the columns it needs and no records are materialized. It returns
// fn's first error, or the first corruption error, and the scan stats.
func (c *ColumnarReader) ScanViews(q Query, workers int, fn func(v *BlockView, rows []int) error) (ScanStats, error) {
	eng := c.newScanEngine(q, workers, false)
	defer eng.release()
	for job := range eng.order {
		<-job.ready
		if job.err != nil {
			return eng.snapshot(), job.err
		}
		if err := fn(job.view, job.rows); err != nil {
			return eng.snapshot(), err
		}
	}
	return eng.snapshot(), nil
}
