// Package workload reimplements LANL's mpi_io_test synthetic benchmark (the
// application the paper traces in its overhead experiments) on the simulated
// cluster. It supports the three parallel I/O access patterns of Figures
// 2-4:
//
//   - N-N: every rank writes its own file;
//   - N-1 non-strided (segmented): one shared file, rank r owns the
//     contiguous segment [r*nobj*size, (r+1)*nobj*size);
//   - N-1 strided: one shared file, object i of rank r lands at offset
//     (i*N + r) * size, interleaving ranks block by block.
//
// Parameters mirror the tool's command line shown in Figure 1:
// -type (pattern), -strided, -size (block size), -nobj (objects per rank).
package workload

import (
	"fmt"

	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
)

// Pattern is a parallel I/O access pattern.
type Pattern int

const (
	// NToN writes one file per rank.
	NToN Pattern = iota
	// N1NonStrided writes one shared file in per-rank contiguous segments.
	N1NonStrided
	// N1Strided writes one shared file with block-interleaved ranks.
	N1Strided
)

// String implements fmt.Stringer using the paper's terminology.
func (p Pattern) String() string {
	switch p {
	case NToN:
		return "N-N"
	case N1NonStrided:
		return "N-1 non-strided"
	case N1Strided:
		return "N-1 strided"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Params parameterizes one benchmark run.
type Params struct {
	Pattern   Pattern
	BlockSize int64  // bytes per write call ("-size")
	NObj      int    // objects (blocks) written per rank ("-nobj")
	Path      string // shared-file path, or per-rank prefix for N-N
	Touch     bool   // read back the first object after writing (sanity)
	// BarrierEvery inserts an MPI barrier after every k objects (0 = none):
	// the phase-synchronized structure of checkpointing applications, and
	// the coupling //TRACE's throttling technique discovers.
	BarrierEvery int
	// ReadBack adds a full read phase after the write phase (barrier
	// between them): every rank reads back its own objects, exercising the
	// read path of the parallel file system.
	ReadBack bool
	// Collective uses MPI_File_write_at_all (two-phase collective I/O)
	// instead of independent writes.
	Collective bool
}

// CommandLine renders the equivalent mpi_io_test invocation, used in the
// LANL-Trace aggregate-timing output (Figure 1).
func (pr Params) CommandLine() string {
	strided := 0
	if pr.Pattern == N1Strided {
		strided = 1
	}
	typ := 1
	if pr.Pattern == NToN {
		typ = 2
	}
	return fmt.Sprintf("/mpi_io_test.exe \"-type\" \"%d\" \"-strided\" \"%d\" \"-size\" \"%d\" \"-nobj\" \"%d\"",
		typ, strided, pr.BlockSize, pr.NObj)
}

// FileFor returns the path rank r writes to.
func (pr Params) FileFor(rank int) string {
	if pr.Pattern == NToN {
		return fmt.Sprintf("%s.%d", pr.Path, rank)
	}
	return pr.Path
}

// OffsetFor returns the file offset of rank r's i-th object.
func (pr Params) OffsetFor(ranks, r, i int) int64 {
	switch pr.Pattern {
	case NToN:
		return int64(i) * pr.BlockSize
	case N1NonStrided:
		return (int64(r)*int64(pr.NObj) + int64(i)) * pr.BlockSize
	case N1Strided:
		return (int64(i)*int64(ranks) + int64(r)) * pr.BlockSize
	default:
		panic("workload: unknown pattern")
	}
}

// RankStats captures one rank's I/O phases.
type RankStats struct {
	IOStart   sim.Time // global time the rank began its first write
	IOEnd     sim.Time // global time its last write returned
	Bytes     int64
	ReadStart sim.Time
	ReadEnd   sim.Time
	BytesRead int64
}

// Result summarizes a run.
type Result struct {
	// Workload is the name of the scenario that ran (Spec.Workload).
	Workload    string
	Params      Params
	Ranks       int
	Elapsed     sim.Duration // job wall-clock (launch to last rank exit)
	IOElapsed   sim.Duration // first write start to last write end, global
	Bytes       int64
	ReadElapsed sim.Duration // read phase span, when ReadBack is enabled
	BytesRead   int64
	PerRank     []RankStats
}

// BandwidthBps is the aggregate write bandwidth over the I/O phase.
func (r Result) BandwidthBps() float64 {
	if r.IOElapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.IOElapsed.Seconds()
}

// ReadBandwidthBps is the aggregate read bandwidth over the read phase.
func (r Result) ReadBandwidthBps() float64 {
	if r.ReadElapsed <= 0 {
		return 0
	}
	return float64(r.BytesRead) / r.ReadElapsed.Seconds()
}

// resultFromStats assembles a Result from per-rank statistics (see
// Spec.ResultFromStats).
func resultFromStats(params Params, elapsed sim.Duration, perRank []RankStats) Result {
	res := Result{
		Params:  params,
		Ranks:   len(perRank),
		PerRank: perRank,
		Elapsed: elapsed,
	}
	var first, last sim.Time
	var rFirst, rLast sim.Time
	seenRead := false
	for i, st := range perRank {
		res.Bytes += st.Bytes
		res.BytesRead += st.BytesRead
		if i == 0 || st.IOStart < first {
			first = st.IOStart
		}
		if st.IOEnd > last {
			last = st.IOEnd
		}
		// Only ranks that ran a read phase contribute to the read window:
		// in mixed-role scenarios (producer-consumer) the writers' zero
		// ReadStart must not stretch the window back to launch.
		if st.ReadEnd > 0 {
			if !seenRead || st.ReadStart < rFirst {
				rFirst = st.ReadStart
			}
			if st.ReadEnd > rLast {
				rLast = st.ReadEnd
			}
			seenRead = true
		}
	}
	res.IOElapsed = last - first
	if rLast > rFirst {
		res.ReadElapsed = rLast - rFirst
	}
	return res
}

// fail panics with rank me's failed step. It keeps the message's
// formatting off Program's frame, which stays on the rank's stack while
// the rank is parked.
//
//go:noinline
func fail(me int, step string, err error) {
	panic(fmt.Sprintf("workload: rank %d %s: %v", me, step, err))
}

// Program is the per-rank body of mpi_io_test, exposed separately so
// tracing frameworks can wrap and replay it. stats may be nil.
func Program(p *sim.Proc, r *mpi.Rank, params Params, stats *RankStats) {
	ranks := r.CommSize(p)
	me := r.CommRank(p)
	r.Init(p)

	// "# Barrier before /mpi_io_test.exe ..." — Figure 1.
	r.Barrier(p)

	amode := mpi.ModeCreate | mpi.ModeWronly
	if params.Touch || params.ReadBack {
		amode = mpi.ModeCreate | mpi.ModeRdwr
	}
	f, err := r.FileOpen(p, params.FileFor(me), amode)
	if err != nil {
		fail(me, "open", err)
	}

	if stats != nil {
		stats.IOStart = p.Now()
	}
	if params.Collective {
		// One collective covers the rank's whole strided access set, as
		// real applications drive two-phase I/O (via MPI file views).
		offsets := make([]int64, params.NObj)
		for i := 0; i < params.NObj; i++ {
			offsets[i] = params.OffsetFor(ranks, me, i)
		}
		n, err := f.WriteStridedAll(p, offsets, params.BlockSize)
		if err != nil {
			fail(me, "collective write", err)
		}
		if stats != nil {
			stats.Bytes += n
		}
	} else {
		for i := 0; i < params.NObj; i++ {
			off := params.OffsetFor(ranks, me, i)
			n, err := f.WriteAt(p, off, params.BlockSize)
			if err != nil {
				fail(me, "write", err)
			}
			if stats != nil {
				stats.Bytes += n
			}
			if params.BarrierEvery > 0 && (i+1)%params.BarrierEvery == 0 && i+1 < params.NObj {
				r.Barrier(p)
			}
		}
	}
	if stats != nil {
		stats.IOEnd = p.Now()
	}

	if params.Touch {
		f.ReadAt(p, params.OffsetFor(ranks, me, 0), params.BlockSize)
	}

	if params.ReadBack {
		// Make every rank's writes visible before the read phase.
		if err := f.Sync(p); err != nil {
			fail(me, "sync", err)
		}
		r.Barrier(p)
		if stats != nil {
			stats.ReadStart = p.Now()
		}
		for i := 0; i < params.NObj; i++ {
			off := params.OffsetFor(ranks, me, i)
			n, err := f.ReadAt(p, off, params.BlockSize)
			if err != nil {
				fail(me, "read", err)
			}
			if stats != nil {
				stats.BytesRead += n
			}
		}
		if stats != nil {
			stats.ReadEnd = p.Now()
		}
	}
	if err := f.Close(p); err != nil {
		fail(me, "close", err)
	}

	// "# Barrier after /mpi_io_test.exe ..." — Figure 1.
	r.Barrier(p)
}
