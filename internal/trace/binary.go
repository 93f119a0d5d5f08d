package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"iotaxo/internal/sim"
)

// Binary trace format (what Tracefs emits):
//
//	file   := magic[8] flags[1] block*
//	block  := payloadLen:u32le crc:u32le(payload) payload
//	payload (flags&FlagCompressed: flate-compressed) := record*
//	record := uvarint fields in a fixed schema (see encodeRecord)
//
// Per-block checksumming detects corruption and truncation; compression and
// block size are options, mirroring the paper's description of Tracefs
// output: "Binary, with optional checksumming, compression, ... or buffering
// (to improve performance)". The stream header, the block read, compression
// and the writer's byte count are shared with the columnar format (frame.go).

var binaryMagic = [8]byte{'I', 'O', 'T', 'X', 'B', 'I', 'N', '1'}

const binaryBlockHeaderLen = 8 // payloadLen:u32le crc:u32le

// Binary stream flags.
const (
	FlagCompressed byte = 1 << iota
	FlagAnonymized      // set by anonymization passes for provenance
	FlagSpans           // records carry trailing Span/Parent fields
)

// ErrCorrupt is returned when a block fails its CRC or framing check.
var ErrCorrupt = errors.New("trace: corrupt binary trace")

// BinaryOptions configures a BinaryWriter.
type BinaryOptions struct {
	Compress        bool
	Anonymized      bool
	Spans           bool // encode Span/Parent fields (sets FlagSpans)
	RecordsPerBlock int  // flush threshold; <=0 means 512
}

// BinaryWriter encodes records into the binary format.
type BinaryWriter struct {
	frameWriter
	opts    BinaryOptions
	buf     bytes.Buffer // encoded records of the pending block
	inBlock int
	blocks  int64
}

// NewBinaryWriter returns a writer; Close must be called to flush the final
// block.
func NewBinaryWriter(w io.Writer, opts BinaryOptions) *BinaryWriter {
	if opts.RecordsPerBlock <= 0 {
		opts.RecordsPerBlock = 512
	}
	b := &BinaryWriter{frameWriter: newFrameWriter(w, binaryMagic, opts.Compress, opts.Anonymized), opts: opts}
	if opts.Spans {
		b.header[8] |= FlagSpans
	}
	return b
}

// Write encodes one record, flushing a block when the threshold is reached.
func (b *BinaryWriter) Write(r *Record) error {
	if err := b.start(); err != nil {
		return err
	}
	encodeRecord(&b.buf, r, b.opts.Spans)
	b.inBlock++
	if b.inBlock >= b.opts.RecordsPerBlock {
		return b.Flush()
	}
	return nil
}

// Flush emits the current block, if any: payload length and CRC-32, then
// the payload as stored.
func (b *BinaryWriter) Flush() error {
	if err := b.start(); err != nil {
		return err
	}
	if b.buf.Len() == 0 {
		return nil
	}
	framed := b.frame(binaryBlockHeaderLen, b.buf.Bytes())
	stored := framed[binaryBlockHeaderLen:]
	binary.LittleEndian.PutUint32(framed[0:], uint32(len(stored)))
	binary.LittleEndian.PutUint32(framed[4:], crc32.ChecksumIEEE(stored))
	b.blocks++
	b.buf.Reset()
	b.inBlock = 0
	return b.write(framed)
}

// Close flushes the final block.
func (b *BinaryWriter) Close() error { return b.Flush() }

// BlocksWritten reports the number of blocks emitted so far.
func (b *BinaryWriter) BlocksWritten() int64 { return b.blocks }

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putString(buf *bytes.Buffer, s string) {
	putUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func encodeRecord(buf *bytes.Buffer, r *Record, spans bool) {
	putVarint(buf, int64(r.Time))
	putVarint(buf, int64(r.Dur))
	putString(buf, r.Node)
	putVarint(buf, int64(r.Rank))
	putVarint(buf, int64(r.PID))
	buf.WriteByte(byte(r.Class))
	putString(buf, r.Name)
	putUvarint(buf, uint64(len(r.Args)))
	for _, a := range r.Args {
		putString(buf, a)
	}
	putString(buf, r.Ret)
	putString(buf, r.Path)
	putVarint(buf, r.Offset)
	putVarint(buf, r.Bytes)
	putVarint(buf, int64(r.UID))
	putVarint(buf, int64(r.GID))
	if spans {
		putUvarint(buf, r.Span)
		putUvarint(buf, r.Parent)
	}
}

// errShortRecord reports a record cut off by the end of its block, or a
// varint overflowing 64 bits.
var errShortRecord = errors.New("truncated or overlong varint")

// uvarint, varint and str consume one field from the undecoded rest of the
// current block.
func (b *BinaryReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(b.block)
	if n <= 0 {
		return 0, errShortRecord
	}
	b.block = b.block[n:]
	return v, nil
}

func (b *BinaryReader) varint() (int64, error) {
	v, n := binary.Varint(b.block)
	if n <= 0 {
		return 0, errShortRecord
	}
	b.block = b.block[n:]
	return v, nil
}

// str decodes a length-prefixed string, interned per block: a node name or
// path repeated across the block's records is allocated once.
func (b *BinaryReader) str() (string, error) {
	n, err := b.uvarint()
	if err != nil {
		return "", err
	}
	if n > 1<<24 || n > uint64(len(b.block)) {
		return "", ErrCorrupt
	}
	raw := b.block[:n]
	b.block = b.block[n:]
	if s, ok := b.strs[string(raw)]; ok {
		return s, nil
	}
	s := string(raw)
	b.strs[s] = s
	return s, nil
}

// decodeRecord decodes the next record of the current block.
func (b *BinaryReader) decodeRecord() (Record, error) {
	var r Record
	var err error
	var v int64
	if v, err = b.varint(); err != nil {
		return r, err
	}
	r.Time = sim.Time(v)
	if v, err = b.varint(); err != nil {
		return r, err
	}
	r.Dur = sim.Duration(v)
	if r.Node, err = b.str(); err != nil {
		return r, err
	}
	if v, err = b.varint(); err != nil {
		return r, err
	}
	r.Rank = int(v)
	if v, err = b.varint(); err != nil {
		return r, err
	}
	r.PID = int(v)
	if len(b.block) == 0 {
		return r, errShortRecord
	}
	cb := b.block[0]
	b.block = b.block[1:]
	if cb >= byte(numClasses) {
		return r, fmt.Errorf("%w: bad class %d", ErrCorrupt, cb)
	}
	r.Class = EventClass(cb)
	if r.Name, err = b.str(); err != nil {
		return r, err
	}
	argc, err := b.uvarint()
	if err != nil {
		return r, err
	}
	if argc > 1<<16 {
		return r, ErrCorrupt
	}
	if argc > 0 {
		// Every argument takes at least one byte, so the bytes left in the
		// block bound a forged count.
		r.Args = make([]string, 0, min(argc, uint64(len(b.block))))
	}
	for i := uint64(0); i < argc; i++ {
		a, err := b.str()
		if err != nil {
			return r, err
		}
		r.Args = append(r.Args, a)
	}
	if r.Ret, err = b.str(); err != nil {
		return r, err
	}
	if r.Path, err = b.str(); err != nil {
		return r, err
	}
	if r.Offset, err = b.varint(); err != nil {
		return r, err
	}
	if r.Bytes, err = b.varint(); err != nil {
		return r, err
	}
	if v, err = b.varint(); err != nil {
		return r, err
	}
	r.UID = int(v)
	if v, err = b.varint(); err != nil {
		return r, err
	}
	r.GID = int(v)
	if b.flags&FlagSpans != 0 {
		if r.Span, err = b.uvarint(); err != nil {
			return r, err
		}
		if r.Parent, err = b.uvarint(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// BinaryReader decodes the binary format, verifying per-block CRCs. Its
// first error sticks: every later Next returns it.
type BinaryReader struct {
	frameReader
	block []byte // the undecoded rest of the current block
	// strs interns the current block's strings. It is cleared at every
	// block, so it never holds more than one block's bytes.
	strs   map[string]string
	blocks int64
	err    error
}

// BlocksRead reports the number of blocks decoded so far.
func (b *BinaryReader) BlocksRead() int64 { return b.blocks }

// NewBinaryReader wraps r for decoding.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{frameReader: frameReader{r: r, magic: binaryMagic}, strs: make(map[string]string)}
}

// Flags returns the stream flags after the first Next call.
func (b *BinaryReader) Flags() byte { return b.flags }

func (b *BinaryReader) nextBlock() error {
	framed, err := b.readBlock(binaryBlockHeaderLen, 0)
	if err != nil {
		return err
	}
	stored := framed[binaryBlockHeaderLen:]
	if crc32.ChecksumIEEE(stored) != binary.LittleEndian.Uint32(framed[4:]) {
		return fmt.Errorf("%w: block CRC mismatch", ErrCorrupt)
	}
	if b.block, err = b.payload(stored); err != nil {
		return err
	}
	clear(b.strs)
	b.blocks++
	return nil
}

// Next returns the next record or io.EOF.
func (b *BinaryReader) Next() (Record, error) {
	if b.err != nil {
		return Record{}, b.err
	}
	for len(b.block) == 0 {
		if b.err = b.nextBlock(); b.err != nil {
			return Record{}, b.err
		}
	}
	rec, err := b.decodeRecord()
	if err != nil {
		b.err = fmt.Errorf("%w: record decode: %v", ErrCorrupt, err)
		return Record{}, b.err
	}
	return rec, nil
}
