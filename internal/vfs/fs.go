// Package vfs models the per-node operating system pieces the paper's
// tracing frameworks attach to: a system-call surface with per-process file
// descriptor tables (where strace/LANL-Trace interposes), a mount table, and
// a stackable virtual-file-system layer boundary (where Tracefs sits).
//
// File data is modelled metadata-only: reads and writes carry (offset,
// length) and cost virtual time, and each file maintains an order-independent
// digest of the extents written so integration tests can assert that a traced
// run leaves the file system in exactly the same end state as an untraced
// run.
package vfs

import (
	"errors"

	"iotaxo/internal/sim"
)

// Sentinel errors for the syscall surface.
var (
	ErrNotExist     = errors.New("vfs: no such file")
	ErrBadFD        = errors.New("vfs: bad file descriptor")
	ErrReadOnly     = errors.New("vfs: file not open for writing")
	ErrWriteOnly    = errors.New("vfs: file not open for reading")
	ErrNoMount      = errors.New("vfs: no filesystem mounted for path")
	ErrIncompatible = errors.New("vfs: filesystem does not support vnode stacking")
)

// OpenFlag mirrors the POSIX open(2) flag subset the simulation needs.
type OpenFlag int

const (
	ORdonly OpenFlag = 0x0
	OWronly OpenFlag = 0x1
	ORdwr   OpenFlag = 0x2
	OCreate OpenFlag = 0x40
	OTrunc  OpenFlag = 0x200
)

// accessMode extracts the read/write mode bits.
func (f OpenFlag) accessMode() OpenFlag { return f & 0x3 }

// CanRead reports whether the flags permit reading.
func (f OpenFlag) CanRead() bool { return f.accessMode() == ORdonly || f.accessMode() == ORdwr }

// CanWrite reports whether the flags permit writing.
func (f OpenFlag) CanWrite() bool { return f.accessMode() == OWronly || f.accessMode() == ORdwr }

// Cred is the caller's identity, carried for the anonymization axis.
type Cred struct {
	UID, GID int
	User     string
}

// FileAttr is stat(2) output.
type FileAttr struct {
	Path string
	Size int64
	UID  int
	GID  int
	Mode int
}

// StatfsInfo is statfs(2) output: enough for MPI-IO to discover what kind of
// file system it is talking to (Figure 1 shows SYS_statfs64 issued inside
// MPI_File_open).
type StatfsInfo struct {
	FSType      string
	BlockSize   int64
	BytesFree   int64
	SupportsPFS bool // true when the FS is the parallel file system
}

// File is an open file handle inside a mounted file system. All byte counts
// are modelled, not materialized; implementations charge virtual time on the
// calling process.
type File interface {
	// ReadAt transfers length bytes at offset, returning bytes read (short
	// reads occur at EOF).
	ReadAt(p *sim.Proc, offset, length int64) (int64, error)
	// WriteAt transfers length bytes at offset.
	WriteAt(p *sim.Proc, offset, length int64) (int64, error)
	// Sync flushes buffered state to stable storage.
	Sync(p *sim.Proc) error
	// Close releases the handle.
	Close(p *sim.Proc) error
	// Attr returns current metadata.
	Attr() FileAttr
}

// Filesystem is anything mountable into a node's mount table. The method
// set is deliberately the VFS operation vector Tracefs wraps.
type Filesystem interface {
	FSName() string
	Open(p *sim.Proc, path string, flags OpenFlag, mode int, cred Cred) (File, error)
	Stat(p *sim.Proc, path string) (FileAttr, error)
	Unlink(p *sim.Proc, path string, cred Cred) error
	Statfs(p *sim.Proc) (StatfsInfo, error)
}

// Stackable is implemented by file systems that support being wrapped by a
// stackable layer such as Tracefs. The paper found Tracefs incompatible
// "out of the box" with LANL's parallel file system; the parallel FS client
// here reports false and tracefs refuses to stack on it without the
// force-compatibility option.
type Stackable interface {
	VNodeStackingSupported() bool
}

// CanStack reports whether fs supports vnode stacking. File systems that do
// not implement Stackable are assumed to be ordinary local file systems and
// stack fine.
func CanStack(fs Filesystem) bool {
	if s, ok := fs.(Stackable); ok {
		return s.VNodeStackingSupported()
	}
	return true
}
