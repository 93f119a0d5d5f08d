package mpi

import (
	"fmt"
	"sort"
	"strconv"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Collective (two-phase) I/O in the style of ROMIO's generalized two-phase
// optimization, which the paper-era mpich 1.2.6 shipped: ranks exchange
// their intended accesses, a subset of ranks (aggregators) each own a
// contiguous slice of the file, data is shuffled over the network to its
// owning aggregator, and the aggregators issue large contiguous writes.
//
// The win case is exactly the paper's "most demanding" pattern: strided
// sub-stripe blocks, where independent writes pay the RAID-5
// read-modify-write on every fragment while the merged aggregator writes
// cover full stripe rows. For large contiguous accesses the extra data
// shuffle makes two-phase I/O a loss — the crossover the harness's
// collective ablation charts.

// CBNodes returns the number of collective-buffering aggregator ranks used
// by the collective writes: every fourth rank, at least one (ROMIO's
// cb_nodes-style knob, fixed to a sensible default here).
func (w *World) CBNodes() int {
	n := len(w.ranks) / 4
	if n < 1 {
		n = 1
	}
	return n
}

// collPiece is one contiguous file extent in a collective exchange.
type collPiece struct {
	Offset int64
	Length int64
}

// collContribution is one rank's declared access set.
type collContribution struct {
	Rank   int
	Pieces []collPiece
}

// WriteStridedAll performs a collective write of a strided access set: each
// rank passes the offsets of its equally-sized blocks (a flattened MPI file
// view). One collective exchange covers the whole set, which is how real
// applications drive two-phase I/O. Traced as MPI_File_write_at_all.
func (f *File) WriteStridedAll(p *sim.Proc, offsets []int64, blockLen int64) (int64, error) {
	var n int64
	var err error
	total := int64(len(offsets)) * blockLen
	f.rank.libcallEnrich(p, "MPI_File_write_at_all",
		func() []string {
			return []string{strconv.Itoa(f.fd), fmt.Sprintf("nblocks=%d", len(offsets)), strconv.FormatInt(blockLen, 10)}
		},
		func() (string, func(*trace.Record)) {
			pieces := make([]collPiece, 0, len(offsets))
			for _, off := range offsets {
				if blockLen > 0 {
					pieces = append(pieces, collPiece{Offset: off, Length: blockLen})
				}
			}
			n, err = f.writeCollectiveBody(p, pieces)
			if err != nil {
				return "-1", nil
			}
			return strconv.FormatInt(n, 10), func(r *trace.Record) {
				r.Path, r.Bytes = f.path, total
			}
		})
	return n, err
}

// writeCollectiveBody runs the two-phase exchange for this rank's pieces.
func (f *File) writeCollectiveBody(p *sim.Proc, mine []collPiece) (int64, error) {
	r := f.rank
	size := len(r.world.ranks)

	// Phase 0: allgather every rank's access set (gather to rank 0,
	// broadcast the full vector), so all ranks compute the identical
	// exchange schedule with no further coordination.
	var myBytes int64
	for _, pc := range mine {
		myBytes += pc.Length
	}
	contribution := collContribution{Rank: r.rank, Pieces: mine}
	gathered := r.gatherRaw(p, 16+int64(len(mine))*16, contribution)
	var all []collContribution
	if r.rank == 0 {
		all = make([]collContribution, 0, size)
		for _, raw := range gathered {
			c, ok := raw.(collContribution)
			if !ok {
				return 0, fmt.Errorf("mpi: bad collective contribution payload %T", raw)
			}
			all = append(all, c)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Rank < all[j].Rank })
	}
	bcasted := r.bcastBody(p, int64(size)*64, all)
	all, _ = bcasted.([]collContribution)
	if len(all) != size {
		return 0, fmt.Errorf("mpi: collective exchange failed (%d/%d)", len(all), size)
	}

	// Aggregate file domain.
	lo, hi := int64(1<<62), int64(0)
	for _, c := range all {
		for _, pc := range c.Pieces {
			if pc.Offset < lo {
				lo = pc.Offset
			}
			if end := pc.Offset + pc.Length; end > hi {
				hi = end
			}
		}
	}
	if hi <= lo {
		r.barrierBody(p)
		return 0, nil
	}
	aggs := r.world.CBNodes()
	domain := (hi - lo + int64(aggs) - 1) / int64(aggs)
	aggOf := func(off int64) int {
		a := int((off - lo) / domain)
		if a >= aggs {
			a = aggs - 1
		}
		return a
	}
	domainEnd := func(a int) int64 {
		e := lo + int64(a+1)*domain
		if e > hi {
			e = hi
		}
		return e
	}

	// Phase 1: ship data to the owning aggregators, one message per
	// (sender, aggregator) pair carrying all intersecting fragments.
	myByAgg := splitContribution(mine, aggOf, domainEnd)
	// Aggregators are visited in index order, not map-iteration order: the
	// send sequence reaches the shared simulation clock through tx/rx
	// serialization, so a randomized order made every multi-aggregator
	// collective run nondeterministic.
	aggOrder := make([]int, 0, len(myByAgg))
	for agg := range myByAgg {
		aggOrder = append(aggOrder, agg)
	}
	sort.Ints(aggOrder)
	for _, agg := range aggOrder {
		if agg == r.rank {
			continue // local fragments need no network hop
		}
		var bytes int64
		for _, pc := range myByAgg[agg] {
			bytes += pc.Length
		}
		r.sendRaw(p, agg, collTag, bytes+64, myByAgg[agg])
	}

	// Phase 2: aggregators collect, merge, coalesce, and write.
	if r.rank < aggs {
		var incoming []collPiece
		incoming = append(incoming, myByAgg[r.rank]...)
		for _, c := range all {
			if c.Rank == r.rank {
				continue
			}
			theirByAgg := splitContribution(c.Pieces, aggOf, domainEnd)
			if len(theirByAgg[r.rank]) == 0 {
				continue
			}
			m := r.recvRaw(p, c.Rank, collTag)
			got, ok := m.Data.([]collPiece)
			if !ok {
				return 0, fmt.Errorf("mpi: bad collective piece payload %T", m.Data)
			}
			incoming = append(incoming, got...)
		}
		for _, run := range coalescePieces(incoming) {
			if _, err := r.pc.PWrite(p, f.fd, run.Offset, run.Length); err != nil {
				return 0, err
			}
		}
	}

	// Phase 3: collective completion.
	r.barrierBody(p)
	return myBytes, nil
}

// splitContribution fragments an access set across aggregator domains.
func splitContribution(pieces []collPiece, aggOf func(int64) int, domainEnd func(int) int64) map[int][]collPiece {
	out := make(map[int][]collPiece)
	for _, pc := range pieces {
		offset, length := pc.Offset, pc.Length
		for length > 0 {
			a := aggOf(offset)
			end := domainEnd(a)
			chunk := end - offset
			if chunk > length {
				chunk = length
			}
			if chunk <= 0 {
				break
			}
			out[a] = append(out[a], collPiece{Offset: offset, Length: chunk})
			offset += chunk
			length -= chunk
		}
	}
	return out
}

// coalescePieces sorts fragments and merges adjacent/overlapping runs.
func coalescePieces(pieces []collPiece) []collPiece {
	if len(pieces) == 0 {
		return nil
	}
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].Offset < pieces[j].Offset })
	out := []collPiece{pieces[0]}
	for _, pc := range pieces[1:] {
		last := &out[len(out)-1]
		if pc.Offset <= last.Offset+last.Length {
			if end := pc.Offset + pc.Length; end > last.Offset+last.Length {
				last.Length = end - last.Offset
			}
			continue
		}
		out = append(out, pc)
	}
	return out
}
