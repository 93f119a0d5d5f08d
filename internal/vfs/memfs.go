package vfs

import (
	"fmt"

	"iotaxo/internal/disk"
	"iotaxo/internal/fnvhash"
	"iotaxo/internal/sim"
)

// MemFS is a local file system (the "ext3" of the simulation): metadata in
// memory, I/O cost charged against a single local disk. It supports vnode
// stacking, so Tracefs mounts on top of it — matching the paper, where
// Tracefs worked on ext3 and NFS but not on the parallel file system.
type MemFS struct {
	name  string
	env   *sim.Env
	disk  *disk.Disk
	files map[string]*memFile

	// OpCount counts VFS operations served, for tests and analysis.
	OpCount int64
}

type memFile struct {
	attr   FileAttr
	digest uint64 // XOR of per-extent hashes: order-independent
	writes int64
	reads  int64
	open   int // open handle count
}

// NewMemFS creates a local file system named name (e.g. "ext3") whose I/O
// lands on a disk with the given configuration.
func NewMemFS(env *sim.Env, name string, dcfg disk.Config) *MemFS {
	return &MemFS{
		name:  name,
		env:   env,
		disk:  disk.NewDisk(env, dcfg),
		files: make(map[string]*memFile),
	}
}

// FSName implements Filesystem.
func (m *MemFS) FSName() string { return m.name }

// VNodeStackingSupported implements Stackable: local FSes stack fine.
func (m *MemFS) VNodeStackingSupported() bool { return true }

// Open implements Filesystem.
func (m *MemFS) Open(p *sim.Proc, path string, flags OpenFlag, mode int, cred Cred) (File, error) {
	m.OpCount++
	f, ok := m.files[path]
	if !ok {
		if flags&OCreate == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		f = &memFile{attr: FileAttr{Path: path, UID: cred.UID, GID: cred.GID, Mode: mode}}
		m.files[path] = f
	}
	if flags&OTrunc != 0 && flags.CanWrite() {
		f.attr.Size = 0
		f.digest = 0
	}
	f.open++
	// Metadata lookup cost: one small disk read (inode).
	if err := m.disk.Read(p, pathPos(path), 512); err != nil {
		return nil, err
	}
	return &memHandle{fs: m, f: f, flags: flags}, nil
}

// Stat implements Filesystem.
func (m *MemFS) Stat(p *sim.Proc, path string) (FileAttr, error) {
	m.OpCount++
	f, ok := m.files[path]
	if !ok {
		return FileAttr{}, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if err := m.disk.Read(p, pathPos(path), 512); err != nil {
		return FileAttr{}, err
	}
	return f.attr, nil
}

// Unlink implements Filesystem.
func (m *MemFS) Unlink(p *sim.Proc, path string, cred Cred) error {
	m.OpCount++
	if _, ok := m.files[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	delete(m.files, path)
	return m.disk.Write(p, pathPos(path), 512)
}

// Statfs implements Filesystem.
func (m *MemFS) Statfs(p *sim.Proc) (StatfsInfo, error) {
	m.OpCount++
	return StatfsInfo{FSType: m.name, BlockSize: 4096, BytesFree: 1 << 40}, nil
}

// Preload creates a file with the given size at zero simulated cost: used
// when assembling a node image (e.g. /etc/hosts) before the run starts.
func (m *MemFS) Preload(path string, size int64) {
	m.files[path] = &memFile{attr: FileAttr{Path: path, Size: size, Mode: 0o644}}
}

// Snapshot returns (size, digest, writes) for a path: the end-state triple
// integration tests compare between traced and untraced runs.
func (m *MemFS) Snapshot(path string) (int64, uint64, int64, bool) {
	f, ok := m.files[path]
	if !ok {
		return 0, 0, 0, false
	}
	return f.attr.Size, f.digest, f.writes, true
}

// memHandle is an open handle on a MemFS file.
type memHandle struct {
	fs     *MemFS
	f      *memFile
	flags  OpenFlag
	closed bool
}

// extentHash digests one written extent; it and pathPos run on every
// simulated I/O operation, so both go through the shared allocation-free
// FNV-1a in internal/fnvhash — the same implementation pfs uses, keeping
// end-state digest comparisons uniform across file systems.
func extentHash(path string, off, n int64) uint64 {
	return fnvhash.Int64(fnvhash.Int64(fnvhash.String(fnvhash.Offset64, path), off), n)
}

func pathPos(path string) int64 {
	return int64(fnvhash.String(fnvhash.Offset64, path) % (1 << 38)) // spread inodes over the disk
}

// WriteAt implements File.
func (h *memHandle) WriteAt(p *sim.Proc, offset, length int64) (int64, error) {
	if h.closed {
		return 0, ErrBadFD
	}
	h.fs.OpCount++
	if err := h.fs.disk.Write(p, pathPos(h.f.attr.Path)+offset, length); err != nil {
		return 0, err
	}
	if end := offset + length; end > h.f.attr.Size {
		h.f.attr.Size = end
	}
	h.f.digest ^= extentHash(h.f.attr.Path, offset, length)
	h.f.writes++
	return length, nil
}

// ReadAt implements File.
func (h *memHandle) ReadAt(p *sim.Proc, offset, length int64) (int64, error) {
	if h.closed {
		return 0, ErrBadFD
	}
	h.fs.OpCount++
	if offset >= h.f.attr.Size {
		return 0, nil // EOF
	}
	if offset+length > h.f.attr.Size {
		length = h.f.attr.Size - offset
	}
	if err := h.fs.disk.Read(p, pathPos(h.f.attr.Path)+offset, length); err != nil {
		return 0, err
	}
	h.f.reads++
	return length, nil
}

// Sync implements File: a short disk flush.
func (h *memHandle) Sync(p *sim.Proc) error {
	if h.closed {
		return ErrBadFD
	}
	h.fs.OpCount++
	return h.fs.disk.Write(p, pathPos(h.f.attr.Path), 512)
}

// Close implements File.
func (h *memHandle) Close(p *sim.Proc) error {
	if h.closed {
		return ErrBadFD
	}
	h.closed = true
	h.f.open--
	h.fs.OpCount++
	return nil
}

// Attr implements File.
func (h *memHandle) Attr() FileAttr { return h.f.attr }
