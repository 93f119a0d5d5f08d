package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"iotaxo/internal/sim"
)

// Framing shared by the v1 binary and v2 columnar codecs: the stream
// header, the writers' byte count and sticky error, the per-block deflater
// and inflater, the bounded read of one block, and the v2 block header, its
// CRC and the v2 trailer. binary.go and columnar.go describe the formats
// built on it.

const (
	streamHeaderLen = 9  // magic[8] flags[1], both formats
	blockHeaderLen  = 40 // fixed-width v2 block header
	trailerLen      = 12 // v2 index framed length + tail magic

	// maxPayloadLen bounds a block's stored payload; a longer one is corrupt.
	maxPayloadLen = 1 << 30
)

// readStreamHeader reads a stream header and returns its flags, failing
// unless it opens with magic.
func readStreamHeader(r io.Reader, magic [8]byte) (byte, error) {
	var hdr [streamHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	return hdr[8], nil
}

// frameWriter is the stream half of both writers. It writes the stream
// header before anything else, frames each block's payload (deflated on
// compressed streams) and counts the bytes written. Its first error sticks:
// every later write returns it.
type frameWriter struct {
	w       io.Writer
	header  [streamHeaderLen]byte
	started bool
	n       int64
	err     error

	// fw deflates every block into framed. It is created on the first
	// compressed block and Reset for every later one, which makes it
	// equivalent to a fresh one, so each block still compresses
	// independently.
	fw     *flate.Writer
	framed bytes.Buffer
}

func newFrameWriter(w io.Writer, magic [8]byte, compress, anonymized bool) frameWriter {
	f := frameWriter{w: w}
	copy(f.header[:], magic[:])
	if compress {
		f.header[8] |= FlagCompressed
	}
	if anonymized {
		f.header[8] |= FlagAnonymized
	}
	return f
}

// BytesWritten reports the encoded size so far: the stream header and every
// flushed block, so a writer's buffered records are not counted yet.
func (f *frameWriter) BytesWritten() int64 { return f.n }

// start writes the stream header once and returns the sticky error.
func (f *frameWriter) start() error {
	if !f.started && f.err == nil {
		f.started = true
		f.write(f.header[:])
	}
	return f.err
}

// write writes bufs in order, counting the bytes written.
func (f *frameWriter) write(bufs ...[]byte) error {
	for _, b := range bufs {
		if f.err != nil {
			break
		}
		n, err := f.w.Write(b)
		f.n += int64(n)
		f.err = err
	}
	return f.err
}

// frame returns a block of hdrLen zero bytes, for the caller to fill with
// the block header, followed by payload as stored: deflated on compressed
// streams. The block is valid until the next call. It is called only while
// no error is pending; a compression error sticks, so the caller's write of
// the block returns it.
func (f *frameWriter) frame(hdrLen int, payload []byte) []byte {
	var zero [blockHeaderLen]byte
	f.framed.Reset()
	f.framed.Write(zero[:hdrLen])
	if f.header[8]&FlagCompressed == 0 {
		f.framed.Write(payload)
		return f.framed.Bytes()
	}
	if f.fw == nil {
		// NewWriter fails only on an invalid level.
		f.fw, _ = flate.NewWriter(&f.framed, flate.BestSpeed)
	} else {
		f.fw.Reset(&f.framed)
	}
	if _, f.err = f.fw.Write(payload); f.err == nil {
		f.err = f.fw.Close()
	}
	return f.framed.Bytes()
}

// frameReader is the stream half of both sequential readers. It reads the
// stream header before the first block, then one block at a time into one
// reused buffer, and inflates compressed payloads into another.
type frameReader struct {
	r       io.Reader
	magic   [8]byte
	flags   byte
	started bool
	head    [blockHeaderLen]byte // the block header being read
	stored  bytes.Buffer         // the current block, header and payload, as stored
	inflater
}

// readBlock reads the next block, header and payload, into f.stored and
// returns it. The header is hdrLen bytes long and holds the payload length
// as a little-endian u32 at lenAt. A stream that ends where a block would
// start returns io.EOF.
func (f *frameReader) readBlock(hdrLen, lenAt int) ([]byte, error) {
	if !f.started {
		f.started = true
		var err error
		if f.flags, err = readStreamHeader(f.r, f.magic); err != nil {
			return nil, err
		}
	}
	head := f.head[:hdrLen]
	if _, err := io.ReadFull(f.r, head); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short block header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(head[lenAt:])
	if n > maxPayloadLen {
		return nil, fmt.Errorf("%w: unreasonable block size %d", ErrCorrupt, n)
	}
	// Copy rather than allocate n bytes up front: a corrupt length must not
	// cost more memory than the bytes actually present.
	f.stored.Reset()
	f.stored.Write(head)
	if _, err := io.CopyN(&f.stored, f.r, int64(n)); err != nil {
		return nil, fmt.Errorf("%w: truncated block", ErrCorrupt)
	}
	return f.stored.Bytes(), nil
}

// payload returns a block's payload as encoded: the stored bytes, inflated
// on compressed streams.
func (f *frameReader) payload(stored []byte) ([]byte, error) {
	if f.flags&FlagCompressed == 0 {
		return stored, nil
	}
	return f.inflate(stored)
}

// inflater decompresses block payloads into one reused buffer with one
// flate reader, created on the first block and Reset for every later one.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
	out bytes.Buffer
}

// inflate returns stored decompressed, valid until the next call.
func (f *inflater) inflate(stored []byte) ([]byte, error) {
	f.src.Reset(stored)
	if f.fr == nil {
		f.fr = flate.NewReader(&f.src)
	} else if err := f.fr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
	}
	f.out.Reset()
	if _, err := f.out.ReadFrom(f.fr); err != nil {
		return nil, fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
	}
	return f.out.Bytes(), nil
}

// blockHeader is the parsed form of a v2 block header.
type blockHeader struct {
	kind       byte
	classMask  uint8
	dirMask    uint8
	count      int
	payloadLen int
	crc        uint32
	minTime    sim.Time
	maxTime    sim.Time
	minRank    int
	maxRank    int
}

// packBlockHeader renders the fixed-width v2 block header of the stored
// payload, its length and CRC included.
func packBlockHeader(kind byte, m BlockMeta, stored []byte) [blockHeaderLen]byte {
	var h [blockHeaderLen]byte
	h[0] = kind
	h[2] = m.ClassMask
	h[3] = m.DirMask
	binary.LittleEndian.PutUint32(h[4:], uint32(m.Count))
	binary.LittleEndian.PutUint32(h[8:], uint32(len(stored)))
	binary.LittleEndian.PutUint64(h[16:], uint64(int64(m.MinTime)))
	binary.LittleEndian.PutUint64(h[24:], uint64(int64(m.MaxTime)))
	binary.LittleEndian.PutUint32(h[32:], uint32(int32(m.MinRank)))
	binary.LittleEndian.PutUint32(h[36:], uint32(int32(m.MaxRank)))
	binary.LittleEndian.PutUint32(h[12:], blockCRC(h[:], stored))
	return h
}

// blockCRC computes a block's checksum: CRC-32 over the header with its CRC
// field zeroed, then the stored payload. Covering the header extends v1's
// corruption semantics to the pruning metadata (ranges, masks, counts) that
// lives outside the payload.
func blockCRC(hdr, payload []byte) uint32 {
	var h [blockHeaderLen]byte
	copy(h[:], hdr)
	h[12], h[13], h[14], h[15] = 0, 0, 0, 0
	return crc32.Update(crc32.ChecksumIEEE(h[:]), crc32.IEEETable, payload)
}

// parseBlockHeader validates and unpacks a fixed-width block header.
func parseBlockHeader(h []byte) (blockHeader, error) {
	if len(h) < blockHeaderLen {
		return blockHeader{}, fmt.Errorf("%w: short block header", ErrCorrupt)
	}
	bh := blockHeader{
		kind:       h[0],
		classMask:  h[2],
		dirMask:    h[3],
		count:      int(binary.LittleEndian.Uint32(h[4:])),
		payloadLen: int(binary.LittleEndian.Uint32(h[8:])),
		crc:        binary.LittleEndian.Uint32(h[12:]),
		minTime:    sim.Time(int64(binary.LittleEndian.Uint64(h[16:]))),
		maxTime:    sim.Time(int64(binary.LittleEndian.Uint64(h[24:]))),
		minRank:    int(int32(binary.LittleEndian.Uint32(h[32:]))),
		maxRank:    int(int32(binary.LittleEndian.Uint32(h[36:]))),
	}
	if bh.kind != blockData && bh.kind != blockIndex {
		return blockHeader{}, fmt.Errorf("%w: bad block kind %d", ErrCorrupt, bh.kind)
	}
	if h[1] != 0 {
		return blockHeader{}, fmt.Errorf("%w: bad reserved byte", ErrCorrupt)
	}
	if bh.payloadLen > maxPayloadLen || bh.count > 1<<28 {
		return blockHeader{}, fmt.Errorf("%w: unreasonable block size", ErrCorrupt)
	}
	return bh, nil
}

// openBlock verifies one whole v2 block, header then stored payload: the
// header's fields, its payload length against the bytes present and the
// CRC over both. It returns the parsed header and the stored payload.
func openBlock(block []byte) (blockHeader, []byte, error) {
	h, err := parseBlockHeader(block)
	if err != nil {
		return blockHeader{}, nil, err
	}
	stored := block[blockHeaderLen:]
	if h.payloadLen != len(stored) {
		return blockHeader{}, nil, fmt.Errorf("%w: block length mismatch", ErrCorrupt)
	}
	if blockCRC(block[:blockHeaderLen], stored) != h.crc {
		return blockHeader{}, nil, fmt.Errorf("%w: block CRC mismatch", ErrCorrupt)
	}
	return h, stored, nil
}

// checkEntry verifies an opened block against the footer index entry that
// lists it: a data block of the entry's record count and length.
func (h blockHeader) checkEntry(m BlockMeta) error {
	if h.kind != blockData || h.count != m.Count || int64(blockHeaderLen+h.payloadLen) != m.Len {
		return fmt.Errorf("%w: block disagrees with index", ErrCorrupt)
	}
	return nil
}

// indexOffset verifies the trailer that ends a v2 stream of the given size
// and returns where the footer index block it frames starts.
func indexOffset(trailer [trailerLen]byte, size int64) (int64, error) {
	if !bytes.Equal(trailer[4:], columnarTail[:]) {
		return 0, fmt.Errorf("%w: missing trailer (stream not Closed?)", ErrCorrupt)
	}
	framed := int64(binary.LittleEndian.Uint32(trailer[:]))
	off := size - trailerLen - framed
	if framed <= blockHeaderLen || off < streamHeaderLen {
		return 0, fmt.Errorf("%w: bad index length", ErrCorrupt)
	}
	return off, nil
}
