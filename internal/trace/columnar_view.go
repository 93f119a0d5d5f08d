package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

	allDecoded bool
}

// parseBlockView slices a (decompressed) data-block payload into its column
// sections. Sections must appear in strictly increasing ID order, dictionary
// first — the writer's layout — which makes duplicates impossible to sneak
// past validation.
func parseBlockView(payload []byte, h blockHeader) (*BlockView, error) {
	// Every record takes at least one byte of the payload, so a larger
	// count is forged, and would otherwise size the column allocations.
	if h.count > len(payload) {
		return nil, fmt.Errorf("%w: block claims %d records in %d bytes", ErrCorrupt, h.count, len(payload))
	}
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
	return v, nil
}

// Len reports the number of records in the block.
func (v *BlockView) Len() int { return v.count }

// section returns a column's raw bytes, failing if the writer omitted it.
func (v *BlockView) section(id byte) ([]byte, error) {
	s := v.secs[id]
	if s == nil {
		return nil, fmt.Errorf("%w: missing column section %d", ErrCorrupt, id)
	}
	return s, nil
}

// ints decodes a varint column, applying the delta chain when the column was
// delta-encoded, and caches the result.
func (v *BlockView) ints(id byte, delta bool, cache *[]int64) ([]int64, error) {
	if *cache != nil {
		return *cache, nil
	}
	sec, err := v.section(id)
	if err != nil {
		return nil, err
	}
	out := make([]int64, v.count)
	var acc int64
	for i := range out {
		x, n := binary.Varint(sec)
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated column %d", ErrCorrupt, id)
		}
		sec = sec[n:]
		if delta {
			acc += x
			out[i] = acc
		} else {
			out[i] = x
		}
	}
	if len(sec) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in column %d", ErrCorrupt, id)
	}
	*cache = out
	return out, nil
}

// Dict decodes the block's string dictionary.
func (v *BlockView) Dict() ([]string, error) {
	if v.dict != nil {
		return v.dict, nil
	}
	sec, err := v.section(colDict)
	if err != nil {
		return nil, err
	}
	br := bytes.NewReader(sec)
	n, err := binary.ReadUvarint(br)
	if err != nil || n > uint64(len(sec)) {
		return nil, fmt.Errorf("%w: bad dictionary count", ErrCorrupt)
	}
	dict := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		sl, err := binary.ReadUvarint(br)
		if err != nil || sl > uint64(br.Len()) {
			return nil, fmt.Errorf("%w: truncated dictionary entry", ErrCorrupt)
		}
		b := make([]byte, sl)
		if _, err := br.Read(b); err != nil && sl > 0 {
			return nil, fmt.Errorf("%w: truncated dictionary entry", ErrCorrupt)
		}
		dict = append(dict, string(b))
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in dictionary", ErrCorrupt)
	}
	v.dict = dict
	return dict, nil
}

// strs decodes a dictionary-index column, resolving each row to its shared
// dictionary string.
func (v *BlockView) strs(id byte, cache *[]string) ([]string, error) {
	if *cache != nil {
		return *cache, nil
	}
	dict, err := v.Dict()
	if err != nil {
		return nil, err
	}
	sec, err := v.section(id)
	if err != nil {
		return nil, err
	}
	out := make([]string, v.count)
	for i := range out {
		x, n := binary.Uvarint(sec)
		if n <= 0 || x >= uint64(len(dict)) {
			return nil, fmt.Errorf("%w: bad dictionary index in column %d", ErrCorrupt, id)
		}
		sec = sec[n:]
		out[i] = dict[x]
	}
	if len(sec) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in column %d", ErrCorrupt, id)
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
	sec, err := v.section(colClassDir)
	if err != nil {
		return nil, err
	}
	if len(sec) != v.count {
		return nil, fmt.Errorf("%w: class/dir column length", ErrCorrupt)
	}
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
	sec, err := v.section(colArgs)
	if err != nil {
		return nil, err
	}
	out := make([][]string, v.count)
	for i := range out {
		argc, n := binary.Uvarint(sec)
		if n <= 0 || argc > 1<<16 {
			return nil, fmt.Errorf("%w: bad argc", ErrCorrupt)
		}
		sec = sec[n:]
		if argc == 0 {
			continue
		}
		row := make([]string, argc)
		for j := range row {
			x, n := binary.Uvarint(sec)
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad arg tag", ErrCorrupt)
			}
			sec = sec[n:]
			if x&1 == 1 {
				row[j] = strconv.FormatInt(unzigzag(x>>1), 10)
				continue
			}
			if x>>1 >= uint64(len(dict)) {
				return nil, fmt.Errorf("%w: bad dictionary index in args", ErrCorrupt)
			}
			row[j] = dict[x>>1]
		}
		out[i] = row
	}
	if len(sec) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in args column", ErrCorrupt)
	}
	v.args = out
	return out, nil
}

// decodeAll forces every column, so Record can index without rechecking.
func (v *BlockView) decodeAll() error {
	for _, f := range []func() error{
		func() error { _, err := v.Times(); return err },
		func() error { _, err := v.Durs(); return err },
		func() error { _, err := v.classDir(); return err },
		func() error { _, err := v.Ranks(); return err },
		func() error { _, err := v.PIDs(); return err },
		func() error { _, err := v.Nodes(); return err },
		func() error { _, err := v.Names(); return err },
		func() error { _, err := v.Paths(); return err },
		func() error { _, err := v.Rets(); return err },
		func() error { _, err := v.Args(); return err },
		func() error { _, err := v.Offsets(); return err },
		func() error { _, err := v.Bytes(); return err },
		func() error { _, err := v.UIDs(); return err },
		func() error { _, err := v.GIDs(); return err },
		func() error { _, err := v.Spans(); return err },
		func() error { _, err := v.Parents(); return err },
	} {
		if err := f(); err != nil {
			return err
		}
	}
	v.allDecoded = true
	return nil
}

// Record materializes row i. All columns are decoded (and cached) on first
// use; the row's strings still share the dictionary's backing.
func (v *BlockView) Record(i int) (Record, error) {
	if !v.allDecoded {
		if err := v.decodeAll(); err != nil {
			return Record{}, err
		}
	}
	if i < 0 || i >= v.count {
		return Record{}, fmt.Errorf("trace: block row %d out of range", i)
	}
	cd := v.secs[colClassDir]
	return Record{
		Time:   sim.Time(v.times[i]),
		Dur:    sim.Duration(v.durs[i]),
		Node:   v.nodes[i],
		Rank:   int(v.ranks[i]),
		PID:    int(v.pids[i]),
		Class:  EventClass(cd[i] & 0x0f),
		Name:   v.names[i],
		Args:   v.args[i],
		Ret:    v.rets[i],
		Path:   v.paths[i],
		Offset: v.offsets[i],
		Bytes:  v.bytesc[i],
		UID:    int(v.uids[i]),
		GID:    int(v.gids[i]),
		Span:   uint64(v.spans[i]),
		Parent: uint64(v.parents[i]),
	}, nil
}

// Records materializes the whole block.
func (v *BlockView) Records() ([]Record, error) {
	if err := v.decodeAll(); err != nil {
		return nil, err
	}
	out := make([]Record, v.count)
	for i := range out {
		r, err := v.Record(i)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
