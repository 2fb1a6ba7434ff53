package posix

import (
	gopath "path"
	"slices"
	"sort"
	"strings"
	"sync"
)

// MemFS is an in-memory FS with POSIX-faithful semantics: fds keep unlinked
// files alive, O_APPEND writes are atomic with respect to concurrent
// appenders, and directory operations behave like a local Unix file system.
// It is the default substrate for tests and functional experiment runs.
//
// A MemFS created by NewNullFS is "dataless": it tracks file sizes and
// metadata exactly, stores real bytes only while a file stays small (so
// PLFS's own index droppings and flattened records still read back), and
// spills to size-only tracking once a file outgrows the keep threshold
// (reads of spilled files return zeros). This is what lets paper-scale workloads
// (136 GB BT class D, 630 GB FLASH-IO) run with exact op streams on a
// laptop.
type MemFS struct {
	mu       sync.Mutex
	root     *memNode
	fds      map[int]*memFD
	nextFD   int
	nextIn   uint64
	clock    int64 // logical nanoseconds, bumped per mutation for ordering
	dataless bool
	keep     int64 // dataless mode: max bytes kept per file before spilling
}

type memNode struct {
	ino      uint64
	mode     uint32
	data     []byte
	spilled  bool                // dataless mode: payload discarded
	vsize    int64               // size when the FS is dataless
	children map[string]*memNode // non-nil iff directory
	nlink    int
	mtime    int64
	atime    int64
	ctime    int64
}

type memFD struct {
	node  *memNode
	off   int64
	flags int
	path  string
}

// NewMemFS returns an empty in-memory file system rooted at "/".
func NewMemFS() *MemFS {
	fs := &MemFS{
		fds:    make(map[int]*memFD),
		nextFD: 3, // 0,1,2 reserved, as on a real process
		nextIn: 2,
	}
	fs.root = &memNode{ino: 1, mode: ModeDir | 0o755, children: make(map[string]*memNode), nlink: 2}
	return fs
}

// NullFSKeepBytes is the per-file byte budget a dataless MemFS retains
// before spilling to size-only tracking. 4 MiB holds any realistic index
// dropping while discarding bulk data payloads.
const NullFSKeepBytes = 4 << 20

// NewNullFS returns a dataless MemFS: identical namespace and size
// semantics; files larger than NullFSKeepBytes spill their payload and
// read back as zeros.
func NewNullFS() *MemFS {
	fs := NewMemFS()
	fs.dataless = true
	fs.keep = NullFSKeepBytes
	return fs
}

func (fs *MemFS) tick() int64 {
	fs.clock++
	return fs.clock
}

func (fs *MemFS) sizeOf(n *memNode) int64 {
	if fs.dataless {
		return n.vsize
	}
	return int64(len(n.data))
}

// spill discards a dataless node's payload, keeping only its size.
func spill(n *memNode) {
	n.spilled = true
	n.data = nil
}

func splitPath(p string) []string {
	p = gopath.Clean("/" + p)
	if p == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

// lookup walks to the node at path. Caller holds fs.mu.
func (fs *MemFS) lookup(path string) (*memNode, error) {
	n := fs.root
	for _, part := range splitPath(path) {
		if n.children == nil {
			return nil, ENOTDIR
		}
		c, ok := n.children[part]
		if !ok {
			return nil, ENOENT
		}
		n = c
	}
	return n, nil
}

// lookupParent returns the parent directory node and the final path element.
// Caller holds fs.mu.
func (fs *MemFS) lookupParent(path string) (*memNode, string, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return nil, "", EINVAL
	}
	n := fs.root
	for _, part := range parts[:len(parts)-1] {
		if n.children == nil {
			return nil, "", ENOTDIR
		}
		c, ok := n.children[part]
		if !ok {
			return nil, "", ENOENT
		}
		n = c
	}
	if n.children == nil {
		return nil, "", ENOTDIR
	}
	return n, parts[len(parts)-1], nil
}

func (fs *MemFS) allocFD(n *memNode, flags int, path string) int {
	fd := fs.nextFD
	fs.nextFD++
	fs.fds[fd] = &memFD{node: n, flags: flags, path: path}
	return fd
}

// Open implements FS.
func (fs *MemFS) Open(path string, flags int, mode uint32) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()

	node, err := fs.lookup(path)
	switch {
	case err == nil:
		if flags&O_CREAT != 0 && flags&O_EXCL != 0 {
			return -1, EEXIST
		}
		if node.children != nil && flags&O_ACCMODE != O_RDONLY {
			return -1, EISDIR
		}
		if flags&O_TRUNC != 0 && node.children == nil {
			node.data = nil
			node.vsize = 0
			node.spilled = false
			node.mtime = fs.tick()
		}
	case err == ENOENT && flags&O_CREAT != 0:
		parent, name, perr := fs.lookupParent(path)
		if perr != nil {
			return -1, perr
		}
		fs.nextIn++
		node = &memNode{ino: fs.nextIn, mode: mode &^ ModeDir, nlink: 1, mtime: fs.tick(), ctime: fs.clock}
		parent.children[name] = node
		parent.mtime = fs.clock
	default:
		return -1, err
	}
	return fs.allocFD(node, flags, gopath.Clean("/"+path)), nil
}

func (fs *MemFS) fd(fd int) (*memFD, error) {
	f, ok := fs.fds[fd]
	if !ok {
		return nil, EBADF
	}
	return f, nil
}

// Close implements FS.
func (fs *MemFS) Close(fd int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.fds[fd]; !ok {
		return EBADF
	}
	delete(fs.fds, fd)
	return nil
}

// Read implements FS.
func (fs *MemFS) Read(fd int, p []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.fd(fd)
	if err != nil {
		return 0, err
	}
	n, err := fs.preadLocked(f, p, f.off)
	f.off += int64(n)
	return n, err
}

// Write implements FS.
func (fs *MemFS) Write(fd int, p []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.fd(fd)
	if err != nil {
		return 0, err
	}
	off := f.off
	if f.flags&O_APPEND != 0 {
		off = fs.sizeOf(f.node)
	}
	n, err := fs.pwriteLocked(f, p, off)
	if err == nil {
		// A failed write leaves the file pointer untouched, as on Linux.
		f.off = off + int64(n)
	}
	return n, err
}

// Pread implements FS. Positional reads are safe to issue concurrently
// on one descriptor: the FS-wide mutex serializes them internally, so
// callers (the PLFS scatter-gather engine) may fan out freely.
func (fs *MemFS) Pread(fd int, p []byte, off int64) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.fd(fd)
	if err != nil {
		return 0, err
	}
	return fs.preadLocked(f, p, off)
}

// preadLocked and pwriteLocked check the descriptor before the length,
// as Linux does: a zero-length transfer through the wrong access mode,
// on a directory or at a negative offset fails like any other.
func (fs *MemFS) preadLocked(f *memFD, p []byte, off int64) (int, error) {
	if f.flags&O_ACCMODE == O_WRONLY {
		return 0, EBADF
	}
	if f.node.children != nil {
		return 0, EISDIR
	}
	if off < 0 {
		return 0, EINVAL
	}
	if len(p) == 0 {
		return 0, nil
	}
	size := fs.sizeOf(f.node)
	if off >= size {
		return 0, nil // EOF
	}
	f.node.atime = fs.tick()
	if fs.dataless {
		n := size - off
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		// Unspilled small files serve real bytes; spilled ones read zeros.
		if !f.node.spilled && off < int64(len(f.node.data)) {
			stored := copy(p[:n], f.node.data[off:])
			for i := stored; int64(i) < n; i++ {
				p[i] = 0
			}
			return int(n), nil
		}
		for i := int64(0); i < n; i++ {
			p[i] = 0
		}
		return int(n), nil
	}
	return copy(p, f.node.data[off:]), nil
}

// Preadv implements VectorFS: the whole vector is served under one
// lock acquisition — MemFS's analogue of collapsing per-extent preads
// into a single preadv(2).
func (fs *MemFS) Preadv(fd int, bufs [][]byte, off int64) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.fd(fd)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		n, err := fs.preadLocked(f, b, off+total)
		total += int64(n)
		if err != nil {
			return total, err
		}
		if n < len(b) {
			return total, nil // EOF
		}
	}
	return total, nil
}

// Pwrite implements FS.
func (fs *MemFS) Pwrite(fd int, p []byte, off int64) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.fd(fd)
	if err != nil {
		return 0, err
	}
	return fs.pwriteLocked(f, p, off)
}

// Pwritev implements VectorFS: every buffer lands under one lock
// acquisition, in order, at contiguous offsets from off.
func (fs *MemFS) Pwritev(fd int, bufs [][]byte, off int64) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.fd(fd)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		n, err := fs.pwriteLocked(f, b, off+total)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (fs *MemFS) pwriteLocked(f *memFD, p []byte, off int64) (int, error) {
	if f.flags&O_ACCMODE == O_RDONLY {
		return 0, EBADF
	}
	if f.node.children != nil {
		return 0, EISDIR
	}
	if off < 0 {
		return 0, EINVAL
	}
	if len(p) == 0 {
		return 0, nil
	}
	end := off + int64(len(p))
	if fs.dataless {
		if end > f.node.vsize {
			f.node.vsize = end
		}
		f.node.mtime = fs.tick()
		if !f.node.spilled {
			if end > fs.keep {
				spill(f.node)
			} else {
				if end > int64(len(f.node.data)) {
					grown := make([]byte, end)
					copy(grown, f.node.data)
					f.node.data = grown
				}
				copy(f.node.data[off:end], p)
			}
		}
		return len(p), nil
	}
	if end > int64(len(f.node.data)) {
		if end > int64(cap(f.node.data)) {
			// Double the capacity (at least) so long append streams cost
			// amortised O(1) copies per byte.
			newCap := 2 * int64(cap(f.node.data))
			if newCap < end {
				newCap = end + end/4
			}
			grown := make([]byte, end, newCap)
			copy(grown, f.node.data)
			f.node.data = grown
		} else {
			f.node.data = f.node.data[:end]
		}
	}
	copy(f.node.data[off:end], p)
	f.node.mtime = fs.tick()
	return len(p), nil
}

// Lseek implements FS.
func (fs *MemFS) Lseek(fd int, offset int64, whence int) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.fd(fd)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case SEEK_SET:
		base = 0
	case SEEK_CUR:
		base = f.off
	case SEEK_END:
		base = fs.sizeOf(f.node)
	default:
		return 0, EINVAL
	}
	pos := base + offset
	if pos < 0 {
		return 0, EINVAL
	}
	f.off = pos
	return pos, nil
}

// Fsync implements FS. MemFS is always durable for the process lifetime.
func (fs *MemFS) Fsync(fd int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, err := fs.fd(fd)
	return err
}

// Ftruncate implements FS.
func (fs *MemFS) Ftruncate(fd int, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.fd(fd)
	if err != nil {
		return err
	}
	if f.flags&O_ACCMODE == O_RDONLY {
		return EBADF
	}
	return fs.truncateNode(f.node, size)
}

func (fs *MemFS) truncateNode(n *memNode, size int64) error {
	if size < 0 {
		return EINVAL
	}
	if n.children != nil {
		return EISDIR
	}
	if fs.dataless {
		n.vsize = size
		if !n.spilled {
			switch {
			case size > fs.keep:
				spill(n)
			case size <= int64(len(n.data)):
				tail := n.data[size:]
				for i := range tail {
					tail[i] = 0
				}
				n.data = n.data[:size]
			default:
				grown := make([]byte, size)
				copy(grown, n.data)
				n.data = grown
			}
		}
		n.mtime = fs.tick()
		return nil
	}
	switch {
	case size <= int64(len(n.data)):
		// Zero the abandoned tail: a later extension that reslices within
		// capacity must expose zeros (a hole), not stale bytes.
		tail := n.data[size:]
		for i := range tail {
			tail[i] = 0
		}
		n.data = n.data[:size]
	default:
		grown := make([]byte, size)
		copy(grown, n.data)
		n.data = grown
	}
	n.mtime = fs.tick()
	return nil
}

func (fs *MemFS) statOf(n *memNode) Stat {
	s := Stat{Mode: n.mode, Nlink: n.nlink, Ino: n.ino, Mtime: n.mtime, Atime: n.atime, Ctime: n.ctime}
	if n.children == nil {
		s.Size = fs.sizeOf(n)
	} else {
		s.Size = int64(len(n.children))
	}
	return s
}

// Fstat implements FS.
func (fs *MemFS) Fstat(fd int) (Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.fd(fd)
	if err != nil {
		return Stat{}, err
	}
	return fs.statOf(f.node), nil
}

// Stat implements FS.
func (fs *MemFS) Stat(path string) (Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(path)
	if err != nil {
		return Stat{}, err
	}
	return fs.statOf(n), nil
}

// Truncate implements FS.
func (fs *MemFS) Truncate(path string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(path)
	if err != nil {
		return err
	}
	return fs.truncateNode(n, size)
}

// Unlink implements FS.
func (fs *MemFS) Unlink(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		return ENOENT
	}
	if n.children != nil {
		return EISDIR
	}
	delete(parent.children, name)
	n.nlink--
	parent.mtime = fs.tick()
	return nil
}

// Mkdir implements FS.
func (fs *MemFS) Mkdir(path string, mode uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return err
	}
	if _, ok := parent.children[name]; ok {
		return EEXIST
	}
	fs.nextIn++
	parent.children[name] = &memNode{
		ino:      fs.nextIn,
		mode:     ModeDir | (mode & ModePerm),
		children: make(map[string]*memNode),
		nlink:    2,
		mtime:    fs.tick(),
		ctime:    fs.clock,
	}
	parent.mtime = fs.clock
	return nil
}

// Rmdir implements FS.
func (fs *MemFS) Rmdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		return ENOENT
	}
	if n.children == nil {
		return ENOTDIR
	}
	if len(n.children) != 0 {
		return ENOTEMPTY
	}
	delete(parent.children, name)
	parent.mtime = fs.tick()
	return nil
}

// Readdir implements FS.
func (fs *MemFS) Readdir(path string) ([]DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	if n.children == nil {
		return nil, ENOTDIR
	}
	out := make([]DirEntry, 0, len(n.children))
	for name, c := range n.children {
		out = append(out, DirEntry{Name: name, IsDir: c.children != nil})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ReaddirStat implements StatDirFS: the listing and every entry's
// attributes under one lock acquisition.
func (fs *MemFS) ReaddirStat(path string) ([]DirEntryStat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	if n.children == nil {
		return nil, ENOTDIR
	}
	out := make([]DirEntryStat, 0, len(n.children))
	for name, c := range n.children {
		out = append(out, DirEntryStat{Name: name, Stat: fs.statOf(c)})
	}
	slices.SortFunc(out, func(a, b DirEntryStat) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

// Rename implements FS.
func (fs *MemFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	op, oname, err := fs.lookupParent(oldpath)
	if err != nil {
		return err
	}
	n, ok := op.children[oname]
	if !ok {
		return ENOENT
	}
	np, nname, err := fs.lookupParent(newpath)
	if err != nil {
		return err
	}
	if existing, ok := np.children[nname]; ok {
		if existing == n {
			return nil
		}
		if existing.children != nil {
			if n.children == nil {
				return EISDIR
			}
			if len(existing.children) != 0 {
				return ENOTEMPTY
			}
		} else if n.children != nil {
			return ENOTDIR
		}
	}
	delete(op.children, oname)
	np.children[nname] = n
	op.mtime = fs.tick()
	np.mtime = fs.clock
	return nil
}

// Access implements FS.
func (fs *MemFS) Access(path string, mode int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, err := fs.lookup(path)
	return err
}

// OpenFDs returns the number of open descriptors; used by leak tests.
func (fs *MemFS) OpenFDs() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.fds)
}

var _ FS = (*MemFS)(nil)
var _ VectorFS = (*MemFS)(nil)
var _ StatDirFS = (*MemFS)(nil)
