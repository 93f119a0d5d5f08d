package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"iotaxo/internal/sim"
)

// TextWriter emits records in the human-readable strace-like format shown in
// Figure 1 of the paper:
//
//	10:59:47.105818 SYS_open("/etc/hosts", 0, 0666) = 3 <0.000034>
//
// A short comment header carries the node/rank/pid context, since LANL-Trace
// writes one raw trace file per process.
type TextWriter struct {
	w             *bufio.Writer
	headerWritten bool
	n             int64 // bytes written, for overhead accounting
}

// NewTextSink returns a text writer for one process's trace stream. The
// header's node/rank/pid context is taken from the first record written.
func NewTextSink(w io.Writer) *TextWriter {
	return &TextWriter{w: bufio.NewWriter(w)}
}

// Write emits one record.
func (t *TextWriter) Write(r *Record) error {
	if !t.headerWritten {
		t.headerWritten = true
		n, err := fmt.Fprintf(t.w, "# iotaxo-trace text v1\n# node=%s rank=%d pid=%d\n",
			r.Node, r.Rank, r.PID)
		t.n += int64(n)
		if err != nil {
			return err
		}
	}
	n, err := fmt.Fprintf(t.w, "%s %s = %s <%d.%06d>\n",
		FormatLocalTime(r.Time), r.CallString(), r.Ret,
		int64(r.Dur)/int64(sim.Second), (int64(r.Dur)%int64(sim.Second))/1000)
	t.n += int64(n)
	return err
}

// BytesWritten reports the total bytes emitted so far (pre-buffer-flush).
func (t *TextWriter) BytesWritten() int64 { return t.n }

// Flush drains the internal buffer.
func (t *TextWriter) Flush() error { return t.w.Flush() }

// Close implements Sink by flushing the buffer.
func (t *TextWriter) Close() error { return t.Flush() }

// TextReader parses the text format back into records, inferring the
// structured I/O fields from well-known call signatures the way replay tools
// built on strace output must.
type TextReader struct {
	sc        *bufio.Scanner
	node      string
	rank, pid int
	line      int
}

// NewTextReader wraps r for parsing.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return &TextReader{sc: sc, rank: -1}
}

// Next returns the next record or io.EOF.
func (t *TextReader) Next() (Record, error) {
	for t.sc.Scan() {
		t.line++
		line := strings.TrimSpace(t.sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.parseHeader(line)
			continue
		}
		rec, err := t.parseLine(line)
		if err != nil {
			return Record{}, fmt.Errorf("trace: line %d: %w", t.line, err)
		}
		return rec, nil
	}
	if err := t.sc.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// ReadAll drains the stream.
func (t *TextReader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		r, err := t.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

func (t *TextReader) parseHeader(line string) {
	for _, f := range strings.Fields(strings.TrimPrefix(line, "#")) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch k {
		case "node":
			t.node = v
		case "rank":
			if n, err := strconv.Atoi(v); err == nil {
				t.rank = n
			}
		case "pid":
			if n, err := strconv.Atoi(v); err == nil {
				t.pid = n
			}
		}
	}
}

func (t *TextReader) parseLine(line string) (Record, error) {
	rec := Record{Node: t.node, Rank: t.rank, PID: t.pid}

	// Timestamp.
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return rec, fmt.Errorf("no timestamp separator in %q", line)
	}
	ts, err := parseLocalTime(line[:sp])
	if err != nil {
		return rec, err
	}
	rec.Time = ts
	rest := line[sp+1:]

	// Call name and argument list.
	open := strings.IndexByte(rest, '(')
	if open < 0 {
		return rec, fmt.Errorf("no '(' in %q", rest)
	}
	rec.Name = rest[:open]
	closeIdx := findCloseParen(rest, open)
	if closeIdx < 0 {
		return rec, fmt.Errorf("unbalanced parens in %q", rest)
	}
	rec.Args = splitArgs(rest[open+1 : closeIdx])
	tail := strings.TrimSpace(rest[closeIdx+1:])

	// "= ret <dur>".
	if !strings.HasPrefix(tail, "=") {
		return rec, fmt.Errorf("missing '=' in %q", tail)
	}
	tail = strings.TrimSpace(tail[1:])
	lt := strings.LastIndexByte(tail, '<')
	if lt < 0 || !strings.HasSuffix(tail, ">") {
		return rec, fmt.Errorf("missing duration in %q", tail)
	}
	rec.Ret = strings.TrimSpace(tail[:lt])
	durStr := tail[lt+1 : len(tail)-1]
	dur, err := parseDuration(durStr)
	if err != nil {
		return rec, err
	}
	rec.Dur = dur
	rec.Class = classOf(rec.Name)
	InferIOFields(&rec)
	return rec, nil
}

// parseLocalTime inverts FormatLocalTime. The day component is lost (as with
// strace -tt), which is fine for intra-run analysis.
func parseLocalTime(s string) (sim.Time, error) {
	var h, m, sec, micro int64
	if _, err := fmt.Sscanf(s, "%d:%d:%d.%d", &h, &m, &sec, &micro); err != nil {
		return 0, fmt.Errorf("bad timestamp %q: %w", s, err)
	}
	return sim.Time(((h*3600+m*60+sec)*1e6 + micro) * 1000), nil
}

func parseDuration(s string) (sim.Duration, error) {
	var sec, micro int64
	if _, err := fmt.Sscanf(s, "%d.%d", &sec, &micro); err != nil {
		return 0, fmt.Errorf("bad duration %q: %w", s, err)
	}
	return sim.Duration((sec*1e6 + micro) * 1000), nil
}

// findCloseParen locates the ')' matching the '(' at index open, skipping
// quoted strings.
func findCloseParen(s string, open int) int {
	depth := 0
	inStr := false
	for i := open; i < len(s); i++ {
		switch {
		case inStr:
			if s[i] == '\\' {
				i++
			} else if s[i] == '"' {
				inStr = false
			}
		case s[i] == '"':
			inStr = true
		case s[i] == '(':
			depth++
		case s[i] == ')':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// splitArgs splits a comma-separated argument list, respecting quotes.
func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	var cur strings.Builder
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			cur.WriteByte(c)
			if c == '\\' && i+1 < len(s) {
				i++
				cur.WriteByte(s[i])
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
			cur.WriteByte(c)
		case c == ',':
			out = append(out, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	out = append(out, strings.TrimSpace(cur.String()))
	return out
}

// classOf infers the event class from a call name, mirroring how trace
// consumers classify strace/ltrace output.
func classOf(name string) EventClass {
	switch {
	case strings.HasPrefix(name, "SYS_"):
		return ClassSyscall
	case strings.HasPrefix(name, "MPI_") || strings.HasPrefix(name, "MPIO_"):
		return ClassMPI
	case strings.HasPrefix(name, "VFS_"):
		return ClassFSOp
	default:
		return ClassLibCall
	}
}

// InferIOFields fills Path/Offset/Bytes from well-known call signatures so
// parsed traces can drive replay. Unknown calls are left untouched.
func InferIOFields(r *Record) {
	argInt := func(i int) int64 {
		if i >= len(r.Args) {
			return 0
		}
		n, _ := strconv.ParseInt(r.Args[i], 10, 64)
		return n
	}
	argStr := func(i int) string {
		if i >= len(r.Args) {
			return ""
		}
		s := r.Args[i]
		if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
			if u, err := strconv.Unquote(s); err == nil {
				return u
			}
		}
		return s
	}
	switch r.Name {
	case "SYS_open", "SYS_creat", "SYS_stat", "SYS_statfs64", "SYS_unlink":
		r.Path = argStr(0)
	case "SYS_pwrite", "SYS_pread":
		r.Offset = argInt(1)
		r.Bytes = argInt(2)
	case "SYS_write", "SYS_read":
		r.Bytes = argInt(1)
	case "SYS_mmap":
		r.Offset = argInt(1)
		r.Bytes = argInt(2)
	case "MPI_File_open":
		r.Path = argStr(1)
	case "MPI_File_write_at", "MPI_File_read_at", "MPI_File_write", "MPI_File_read":
		r.Offset = argInt(1)
		r.Bytes = argInt(2)
	case "VFS_write", "VFS_read", "VFS_writepage":
		r.Path = argStr(0)
		r.Offset = argInt(1)
		r.Bytes = argInt(2)
	case "VFS_open", "VFS_lookup", "VFS_unlink", "VFS_create":
		r.Path = argStr(0)
	}
}
