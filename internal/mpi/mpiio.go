package mpi

import (
	"strconv"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/vfs"
)

// MPI-IO access modes (subset of MPI_MODE_*).
const (
	ModeRdonly = 0x2
	ModeWronly = 0x4
	ModeRdwr   = 0x8
	ModeCreate = 0x1
)

// File is an MPI-IO file handle bound to one rank. Its operations are
// traced as MPI library calls and execute real system calls underneath, so
// both tracing granularities observe them.
type File struct {
	rank *Rank
	fd   int
	path string
	open bool
}

// FileOpen opens path with MPI-IO semantics. It reproduces the syscall
// footprint Figure 1 shows inside MPI_File_open: a statfs64 to identify the
// file system, the open itself, and an fcntl on the new descriptor.
func (r *Rank) FileOpen(p *sim.Proc, path string, amode int) (*File, error) {
	var f *File
	var err error
	r.libcall(p, "MPI_File_open",
		func() []string { return []string{"92", strconv.Quote(path), strconv.Itoa(amode)} },
		func() string {
			flags := vfs.ORdonly
			switch {
			case amode&ModeRdwr != 0:
				flags = vfs.ORdwr
			case amode&ModeWronly != 0:
				flags = vfs.OWronly
			}
			if amode&ModeCreate != 0 {
				flags |= vfs.OCreate
			}
			if _, serr := r.pc.Statfs(p, path); serr != nil {
				err = serr
				return "-1"
			}
			var fd int
			fd, err = r.pc.Open(p, path, flags, 0o644)
			if err != nil {
				return "-1"
			}
			r.pc.Fcntl(p, fd, 1, 0)
			f = &File{rank: r, fd: fd, path: path, open: true}
			return "0"
		})
	return f, err
}

// WriteAt writes length bytes at offset (traced as MPI_File_write_at).
func (f *File) WriteAt(p *sim.Proc, offset, length int64) (int64, error) {
	var n int64
	var err error
	f.rank.libcallEnrich(p, "MPI_File_write_at",
		func() []string {
			return []string{strconv.Itoa(f.fd), strconv.FormatInt(offset, 10), strconv.FormatInt(length, 10)}
		},
		func() (string, func(*trace.Record)) {
			n, err = f.rank.pc.PWrite(p, f.fd, offset, length)
			if err != nil {
				return "-1", nil
			}
			return strconv.FormatInt(n, 10), func(r *trace.Record) { r.Path = f.path }
		})
	return n, err
}

// ReadAt reads length bytes at offset (traced as MPI_File_read_at).
func (f *File) ReadAt(p *sim.Proc, offset, length int64) (int64, error) {
	var n int64
	var err error
	f.rank.libcallEnrich(p, "MPI_File_read_at",
		func() []string {
			return []string{strconv.Itoa(f.fd), strconv.FormatInt(offset, 10), strconv.FormatInt(length, 10)}
		},
		func() (string, func(*trace.Record)) {
			n, err = f.rank.pc.PRead(p, f.fd, offset, length)
			if err != nil {
				return "-1", nil
			}
			return strconv.FormatInt(n, 10), func(r *trace.Record) { r.Path = f.path }
		})
	return n, err
}

// Sync flushes the file (traced as MPI_File_sync).
func (f *File) Sync(p *sim.Proc) error {
	var err error
	f.rank.libcallEnrich(p, "MPI_File_sync",
		func() []string { return []string{strconv.Itoa(f.fd)} },
		func() (string, func(*trace.Record)) {
			err = f.rank.pc.Fsync(p, f.fd)
			if err != nil {
				return "-1", nil
			}
			return "0", func(r *trace.Record) { r.Path = f.path }
		})
	return err
}

// Close closes the handle (traced as MPI_File_close).
func (f *File) Close(p *sim.Proc) error {
	var err error
	f.rank.libcallEnrich(p, "MPI_File_close",
		func() []string { return []string{strconv.Itoa(f.fd)} },
		func() (string, func(*trace.Record)) {
			err = f.rank.pc.Close(p, f.fd)
			f.open = false
			if err != nil {
				return "-1", nil
			}
			return "0", func(r *trace.Record) { r.Path = f.path }
		})
	return err
}
