package trace

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"iotaxo/internal/sim"
)

// BlockView is a decoded v2 block exposing its columns without materializing
// records. Construction only slices the payload into sections; each column
// decodes lazily on first access and is cached, so a consumer that needs
// only times and byte counts never touches paths or args. String columns
// resolve through the block dictionary, so every row referencing the same
// path shares one string — the zero-copy half of the query plane.
//
// A BlockView aliases the payload it was parsed from; the payload must not
// be mutated while the view is live.
type BlockView struct {
	count     int
	classMask uint8
	dirMask   uint8
	secs      [maxColID + 1][]byte

	dict []string

	times   []int64
	durs    []int64
	ranks   []int64
	pids    []int64
	offsets []int64
	bytesc  []int64
	uids    []int64
	gids    []int64
	spans   []int64
	parents []int64

	nodes []string
	names []string
	paths []string
	rets  []string
	args  [][]string

	rows []int // 0..count-1, built by everyRow
}

// parseBlockView slices a (decompressed) data-block payload into its column
// sections. Sections must appear in strictly increasing ID order, dictionary
// first — the writer's layout — which makes duplicates impossible to sneak
// past validation.
//
// It also checks that the sections can hold the block's rows: every row
// takes one byte of the class/dir column and at least one byte (a varint, a
// dictionary index or an argument count) of each other row column. So a
// forged record count fails here, before anything is sized by it, and the
// memory a block's rows take stays proportional to its payload.
func parseBlockView(payload []byte, h blockHeader) (*BlockView, error) {
	v := &BlockView{count: h.count, classMask: h.classMask, dirMask: h.dirMask}
	rest := payload
	prev := byte(0)
	for len(rest) > 0 {
		id := rest[0]
		if id == 0 || id > maxColID || id <= prev {
			return nil, fmt.Errorf("%w: bad column section id %d", ErrCorrupt, id)
		}
		prev = id
		n, sz := binary.Uvarint(rest[1:])
		if sz <= 0 || n > uint64(len(rest)-1-sz) {
			return nil, fmt.Errorf("%w: bad column section length", ErrCorrupt)
		}
		body := rest[1+sz : 1+sz+int(n)]
		v.secs[id] = body
		rest = rest[1+sz+int(n):]
	}
	for id := colDict; id <= maxColID; id++ {
		sec := v.secs[id]
		switch {
		case sec == nil && id < colSpans: // only the span columns are optional
			return nil, fmt.Errorf("%w: missing column section %d", ErrCorrupt, id)
		case id == colClassDir && len(sec) != h.count:
			return nil, fmt.Errorf("%w: class/dir column length", ErrCorrupt)
		case sec != nil && id != colDict && len(sec) < h.count:
			return nil, fmt.Errorf("%w: column %d too short for %d records", ErrCorrupt, id, h.count)
		}
	}
	return v, nil
}

// Len reports the number of records in the block.
func (v *BlockView) Len() int { return v.count }

// everyRow returns the row indexes 0..Len()-1: the rows of a walk that
// decodes a whole column.
func (v *BlockView) everyRow() []int {
	if v.rows == nil {
		v.rows = make([]int, v.count)
		for i := range v.rows {
			v.rows[i] = i
		}
	}
	return v.rows
}

// The column walkers below each decode and validate every row of one kind
// of column section, whichever rows the caller wants, so a corrupt block
// fails on every path. They hand fn the values of the rows listed in rows
// (ascending, distinct row indexes), each with its position k in rows. Both
// the cached column accessors and materializeRows read columns through them.

// walkInts walks a varint column, applying the delta chain when the column
// was delta-encoded.
func walkInts(sec []byte, id byte, count int, delta bool, rows []int, fn func(k int, x int64)) error {
	var acc int64
	k := 0
	for i := 0; i < count; i++ {
		x, n := binary.Varint(sec)
		if n <= 0 {
			return fmt.Errorf("%w: truncated column %d", ErrCorrupt, id)
		}
		sec = sec[n:]
		if delta {
			acc += x
			x = acc
		}
		if k < len(rows) && rows[k] == i {
			fn(k, x)
			k++
		}
	}
	if len(sec) != 0 {
		return fmt.Errorf("%w: trailing bytes in column %d", ErrCorrupt, id)
	}
	return nil
}

// walkStrs walks a dictionary-index column, resolving each row to its
// shared dictionary string.
func walkStrs(sec []byte, id byte, count int, dict []string, rows []int, fn func(k int, s string)) error {
	k := 0
	for i := 0; i < count; i++ {
		x, n := binary.Uvarint(sec)
		if n <= 0 || x >= uint64(len(dict)) {
			return fmt.Errorf("%w: bad dictionary index in column %d", ErrCorrupt, id)
		}
		sec = sec[n:]
		if k < len(rows) && rows[k] == i {
			fn(k, dict[x])
			k++
		}
	}
	if len(sec) != 0 {
		return fmt.Errorf("%w: trailing bytes in column %d", ErrCorrupt, id)
	}
	return nil
}

// walkArgs walks the args column. The listed rows' argument lists share
// backing arrays appended to as the walk goes, each list capped at its own
// length so that appending to one record's Args cannot overwrite the next
// record's; a row without arguments gets nil.
func walkArgs(sec []byte, count int, dict []string, rows []int, fn func(k int, args []string)) error {
	// Every row takes at least one byte for its count and every argument
	// one for its tag, which bounds the listed rows' share of the column.
	var all []string
	if count > 0 {
		all = make([]string, 0, max(len(sec)-count, 0)*len(rows)/count)
	}
	k := 0
	for i := 0; i < count; i++ {
		argc, n := binary.Uvarint(sec)
		if n <= 0 || argc > 1<<16 {
			return fmt.Errorf("%w: bad argc", ErrCorrupt)
		}
		sec = sec[n:]
		listed := k < len(rows) && rows[k] == i
		start := len(all)
		for j := uint64(0); j < argc; j++ {
			x, n := binary.Uvarint(sec)
			if n <= 0 {
				return fmt.Errorf("%w: bad arg tag", ErrCorrupt)
			}
			sec = sec[n:]
			if x&1 == 0 && x>>1 >= uint64(len(dict)) {
				return fmt.Errorf("%w: bad dictionary index in args", ErrCorrupt)
			}
			if !listed {
				continue
			}
			if x&1 == 1 {
				all = append(all, strconv.FormatInt(unzigzag(x>>1), 10))
			} else {
				all = append(all, dict[x>>1])
			}
		}
		if listed {
			var args []string
			if argc > 0 {
				args = all[start:len(all):len(all)]
			}
			fn(k, args)
			k++
		}
	}
	if len(sec) != 0 {
		return fmt.Errorf("%w: trailing bytes in args column", ErrCorrupt)
	}
	return nil
}

// ints decodes a varint column and caches the result.
func (v *BlockView) ints(id byte, delta bool, cache *[]int64) ([]int64, error) {
	if *cache != nil {
		return *cache, nil
	}
	out := make([]int64, v.count)
	err := walkInts(v.secs[id], id, v.count, delta, v.everyRow(), func(i int, x int64) { out[i] = x })
	if err != nil {
		return nil, err
	}
	*cache = out
	return out, nil
}

// Dict decodes the block's string dictionary, one allocation per entry.
func (v *BlockView) Dict() ([]string, error) {
	if v.dict != nil {
		return v.dict, nil
	}
	sec := v.secs[colDict]
	n, sz := binary.Uvarint(sec)
	if sz <= 0 || n > uint64(len(sec)) {
		return nil, fmt.Errorf("%w: bad dictionary count", ErrCorrupt)
	}
	sec = sec[sz:]
	dict := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		sl, sz := binary.Uvarint(sec)
		if sz <= 0 || sl > uint64(len(sec)-sz) {
			return nil, fmt.Errorf("%w: truncated dictionary entry", ErrCorrupt)
		}
		dict = append(dict, string(sec[sz:sz+int(sl)]))
		sec = sec[sz+int(sl):]
	}
	if len(sec) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in dictionary", ErrCorrupt)
	}
	v.dict = dict
	return dict, nil
}

// strs decodes a dictionary-index column and caches the result.
func (v *BlockView) strs(id byte, cache *[]string) ([]string, error) {
	if *cache != nil {
		return *cache, nil
	}
	dict, err := v.Dict()
	if err != nil {
		return nil, err
	}
	out := make([]string, v.count)
	if err := walkStrs(v.secs[id], id, v.count, dict, v.everyRow(), func(i int, s string) { out[i] = s }); err != nil {
		return nil, err
	}
	*cache = out
	return out, nil
}

// Times returns the timestamp column (node-local, like Record.Time).
func (v *BlockView) Times() ([]int64, error) { return v.ints(colTimes, true, &v.times) }

// Durs returns the duration column.
func (v *BlockView) Durs() ([]int64, error) { return v.ints(colDurs, false, &v.durs) }

// Ranks returns the MPI rank column.
func (v *BlockView) Ranks() ([]int64, error) { return v.ints(colRanks, true, &v.ranks) }

// PIDs returns the process-id column.
func (v *BlockView) PIDs() ([]int64, error) { return v.ints(colPIDs, true, &v.pids) }

// Offsets returns the file-offset column.
func (v *BlockView) Offsets() ([]int64, error) { return v.ints(colOffsets, true, &v.offsets) }

// Bytes returns the byte-count column.
func (v *BlockView) Bytes() ([]int64, error) { return v.ints(colBytes, false, &v.bytesc) }

// UIDs returns the uid column.
func (v *BlockView) UIDs() ([]int64, error) { return v.ints(colUIDs, false, &v.uids) }

// Spans returns the causal-span column. Blocks written without spans omit
// the section; those decode as all zeros ("no span") rather than erroring,
// so span-less and pre-span traces stay readable.
func (v *BlockView) Spans() ([]int64, error) { return v.optInts(colSpans, &v.spans) }

// Parents returns the parent-span column, with the same tolerance for
// span-less blocks as Spans.
func (v *BlockView) Parents() ([]int64, error) { return v.optInts(colParents, &v.parents) }

// optInts decodes an optional delta-varint column, synthesizing zeros when
// the writer omitted the section.
func (v *BlockView) optInts(id byte, cache *[]int64) ([]int64, error) {
	if *cache != nil {
		return *cache, nil
	}
	if v.secs[id] == nil {
		*cache = make([]int64, v.count)
		return *cache, nil
	}
	return v.ints(id, true, cache)
}

// GIDs returns the gid column, decoded relative to the uid column.
func (v *BlockView) GIDs() ([]int64, error) {
	if v.gids != nil {
		return v.gids, nil
	}
	uids, err := v.UIDs()
	if err != nil {
		return nil, err
	}
	out, err := v.ints(colGIDs, false, &v.gids)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] += uids[i]
	}
	return out, nil
}

// Nodes returns the host-name column.
func (v *BlockView) Nodes() ([]string, error) { return v.strs(colNodes, &v.nodes) }

// Names returns the call-name column.
func (v *BlockView) Names() ([]string, error) { return v.strs(colNames, &v.names) }

// Paths returns the path column.
func (v *BlockView) Paths() ([]string, error) { return v.strs(colPaths, &v.paths) }

// Rets returns the formatted-return column.
func (v *BlockView) Rets() ([]string, error) { return v.strs(colRets, &v.rets) }

// classDir returns the packed class/direction column, validated.
func (v *BlockView) classDir() ([]byte, error) {
	sec := v.secs[colClassDir]
	for _, b := range sec {
		if EventClass(b&0x0f) >= numClasses || IODir(b>>4) > DirWrite {
			return nil, fmt.Errorf("%w: bad class/dir byte", ErrCorrupt)
		}
	}
	return sec, nil
}

// Classes returns the event-class column.
func (v *BlockView) Classes() ([]EventClass, error) {
	cd, err := v.classDir()
	if err != nil {
		return nil, err
	}
	out := make([]EventClass, len(cd))
	for i, b := range cd {
		out[i] = EventClass(b & 0x0f)
	}
	return out, nil
}

// Dirs returns the I/O-direction column as recorded at write time; it equals
// recomputing Record.Direction on materialized records, decoded from one
// byte instead of the name strings.
func (v *BlockView) Dirs() ([]IODir, error) {
	cd, err := v.classDir()
	if err != nil {
		return nil, err
	}
	out := make([]IODir, len(cd))
	for i, b := range cd {
		out[i] = IODir(b >> 4)
	}
	return out, nil
}

// Args returns the per-record argument lists.
func (v *BlockView) Args() ([][]string, error) {
	if v.args != nil {
		return v.args, nil
	}
	dict, err := v.Dict()
	if err != nil {
		return nil, err
	}
	out := make([][]string, v.count)
	if err := walkArgs(v.secs[colArgs], v.count, dict, v.everyRow(), func(i int, args []string) { out[i] = args }); err != nil {
		return nil, err
	}
	v.args = out
	return out, nil
}

// intColumns are the varint columns of a materialized record, in decode
// order: UIDs come before GIDs, which are stored relative to them.
var intColumns = [...]struct {
	id    byte
	delta bool
	set   func(r *Record, x int64)
}{
	{colTimes, true, func(r *Record, x int64) { r.Time = sim.Time(x) }},
	{colDurs, false, func(r *Record, x int64) { r.Dur = sim.Duration(x) }},
	{colRanks, true, func(r *Record, x int64) { r.Rank = int(x) }},
	{colPIDs, true, func(r *Record, x int64) { r.PID = int(x) }},
	{colOffsets, true, func(r *Record, x int64) { r.Offset = x }},
	{colBytes, false, func(r *Record, x int64) { r.Bytes = x }},
	{colUIDs, false, func(r *Record, x int64) { r.UID = int(x) }},
	{colGIDs, false, func(r *Record, x int64) { r.GID = r.UID + int(x) }},
	{colSpans, true, func(r *Record, x int64) { r.Span = uint64(x) }},
	{colParents, true, func(r *Record, x int64) { r.Parent = uint64(x) }},
}

// strColumns are the dictionary-index columns of a materialized record.
var strColumns = [...]struct {
	id  byte
	set func(r *Record, s string)
}{
	{colNodes, func(r *Record, s string) { r.Node = s }},
	{colNames, func(r *Record, s string) { r.Name = s }},
	{colPaths, func(r *Record, s string) { r.Path = s }},
	{colRets, func(r *Record, s string) { r.Ret = s }},
}

// materializeRows builds the records of the given rows (ascending, distinct
// row indexes) by walking each column section once, or reading a column an
// accessor already decoded, and writing every listed row's value straight
// into its record. Every row of every column is validated, listed or not,
// so a corrupt block fails whichever rows a query selects. Strings share
// the block dictionary.
//
// The records are written over buf's storage when it is large enough; every
// field of every record is set, so buf may hold records of an earlier block.
func materializeRows(v *BlockView, rows []int, buf []Record) ([]Record, error) {
	out := slices.Grow(buf[:0], len(rows))[:len(rows)]
	// A column an accessor already decoded (matchRows reads times, ranks
	// and the stats columns a query constrains) was validated row by row
	// then, so its matched rows come from the cache. The gid cache holds
	// absolute gids, so that column is always walked.
	cached := [maxColID + 1][]int64{
		colTimes: v.times, colDurs: v.durs, colRanks: v.ranks, colPIDs: v.pids, colOffsets: v.offsets,
		colBytes: v.bytesc, colUIDs: v.uids, colSpans: v.spans, colParents: v.parents,
	}
	for _, c := range intColumns {
		if col := cached[c.id]; col != nil {
			for k, i := range rows {
				c.set(&out[k], col[i])
			}
			continue
		}
		sec := v.secs[c.id]
		if sec == nil { // a span column of a span-less block
			for k := range out {
				c.set(&out[k], 0)
			}
			continue
		}
		if err := walkInts(sec, c.id, v.count, c.delta, rows, func(k int, x int64) { c.set(&out[k], x) }); err != nil {
			return nil, err
		}
	}
	cd, err := v.classDir()
	if err != nil {
		return nil, err
	}
	for k, i := range rows {
		out[k].Class = EventClass(cd[i] & 0x0f)
	}
	dict, err := v.Dict()
	if err != nil {
		return nil, err
	}
	for _, c := range strColumns {
		if err := walkStrs(v.secs[c.id], c.id, v.count, dict, rows, func(k int, s string) { c.set(&out[k], s) }); err != nil {
			return nil, err
		}
	}
	if err := walkArgs(v.secs[colArgs], v.count, dict, rows, func(k int, args []string) { out[k].Args = args }); err != nil {
		return nil, err
	}
	return out, nil
}
