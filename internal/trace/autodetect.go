package trace

import (
	"bufio"
	"bytes"
	"io"
)

// Format identifies a trace stream encoding.
type Format int

// The stream formats.
const (
	FormatUnknown Format = iota
	FormatText
	FormatBinary
	FormatColumnar
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatBinary:
		return "binary"
	case FormatColumnar:
		return "columnar"
	default:
		return "unknown"
	}
}

// DetectFormat sniffs a stream's format from its first bytes without
// consuming them; the returned reader replays the full stream.
func DetectFormat(r io.Reader) (Format, io.Reader) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(len(binaryMagic))
	if bytes.Equal(head, binaryMagic[:]) {
		return FormatBinary, br
	}
	if bytes.Equal(head, columnarMagic[:]) {
		return FormatColumnar, br
	}
	if len(head) > 0 {
		return FormatText, br
	}
	return FormatUnknown, br
}

// OpenAuto sniffs a trace stream's format and returns a streaming Source
// over it: the bounded-memory entry point for trace consumption. An empty
// stream yields FormatUnknown and an empty source.
func OpenAuto(r io.Reader) (Source, Format, error) {
	format, rr := DetectFormat(r)
	switch format {
	case FormatBinary:
		return NewBinaryReader(rr), format, nil
	case FormatColumnar:
		return NewColumnarSource(rr), format, nil
	case FormatText:
		return NewTextReader(rr), format, nil
	default:
		return EmptySource(), format, nil
	}
}
