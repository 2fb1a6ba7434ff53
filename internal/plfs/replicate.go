// Replication health and repair: the doctor-side of the replica-R
// layout. The striped composite degrades writes to the surviving
// replicas when a backend dies; the scanner here finds what the dead
// backend missed (under-replication) or half-applied (divergence), and
// the repairer re-replicates from the best surviving copy — PLFS's
// append-only droppings make "best" well-defined: the largest copy
// strictly contains every shorter one.
package plfs

import (
	"fmt"
	gopath "path"
	"sort"

	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/posix"
)

// replicaCopy is one backend's view of a replicated file.
type replicaCopy struct {
	Backend int   // backend index
	Size    int64 // size on that backend (0 when missing)
	Missing bool
}

// replicaProblem is one file whose copy set is unhealthy.
type replicaProblem struct {
	Path     string // container-relative path
	Want     int    // expected copies (layout width)
	Copies   []replicaCopy
	Diverged bool // present copies disagree in size
}

// replicaHealth is the result of scanning one container's replica
// sets.
type replicaHealth struct {
	// Width is the expected number of copies per file (1 = replication
	// off; the scan is then trivially clean).
	Width int
	// Descriptor is the layout descriptor persisted in the container
	// ("" when none is recorded — a default mod-N container).
	Descriptor string
	// DescriptorErr is the persisted descriptor's validation failure,
	// if any (corrupt or truncated record).
	DescriptorErr string
	// Configured is the descriptor of the layout this instance runs.
	Configured string
	// Files is the number of replicated files scanned.
	Files int
	// UnderReplicated counts files with at least one missing copy.
	UnderReplicated int
	// Diverged counts files whose present copies disagree in size.
	Diverged int
	// Problems lists every unhealthy file.
	Problems []replicaProblem
}

// Clean reports whether every replica set is complete and consistent
// and the container records the running layout. Only a width-1 (mod-N)
// container may record none: CreateContainer persists the descriptor of
// every wider layout, so a replicated container without one lost it.
func (h replicaHealth) Clean() bool {
	recorded := h.Descriptor == h.Configured || h.Width <= 1 && h.Descriptor == ""
	return h.UnderReplicated == 0 && h.Diverged == 0 && h.DescriptorErr == "" && recorded
}

// repairReport summarises one repairReplication pass.
type repairReport struct {
	// Repaired counts copies rewritten or created.
	Repaired int
	// Skipped counts diverged files left untouched (run with force to
	// overwrite the shorter copies from the longest).
	Skipped int
}

// replicaDirs returns the container-relative directories that may hold
// replicated files: the root, openhosts/ and every hostdir.
func (p *FS) replicaDirs(path string) ([]string, error) {
	entries, err := p.backend.Readdir(path)
	if err != nil {
		return nil, fmt.Errorf("plfs: replication scan %s: %w", path, err)
	}
	dirs := []string{""}
	for _, e := range entries {
		if e.IsDir {
			dirs = append(dirs, e.Name)
		}
	}
	return dirs, nil
}

// scanReplicaDir returns each owner backend's view (name -> size) of
// one container-relative directory, keyed by backend index, plus the
// union file list. Backends that cannot list the directory (dead, or
// never materialised it) report a nil map.
func scanReplicaDir(backends []posix.FS, owners []int, dir string) (map[int]map[string]int64, []string) {
	views := make(map[int]map[string]int64, len(owners))
	union := map[string]bool{}
	for _, b := range owners {
		entries, err := backends[b].Readdir(dir)
		if err != nil {
			views[b] = nil
			continue
		}
		view := make(map[string]int64, len(entries))
		for _, e := range entries {
			if e.IsDir {
				continue
			}
			st, err := backends[b].Stat(dir + "/" + e.Name)
			if err != nil || st.IsDir() {
				continue
			}
			view[e.Name] = st.Size
			union[e.Name] = true
		}
		views[b] = view
	}
	names := make([]string, 0, len(union))
	for n := range union {
		names = append(names, n)
	}
	sort.Strings(names)
	return views, names
}

// viewSignature folds one backend's directory view into the flattened-
// index raw signature (names + sizes) — the PR 4 scheme reused here so
// agreement between replicas is a single 8-byte comparison and the
// per-file diff only runs on mismatch.
func viewSignature(view map[string]int64) uint64 {
	names := make([]string, 0, len(view))
	for n := range view {
		names = append(names, n)
	}
	sort.Strings(names)
	sizes := make([]int64, len(names))
	for i, n := range names {
		sizes[i] = view[n]
	}
	return idx.RawSignature(names, sizes)
}

// replicationHealth scans the container at path: for every file that
// the layout says should exist in R copies, it compares the copies
// across the owner backends. A missing copy is under-replication (a
// backend was dark while the file was written); present copies of
// different sizes are divergence (a backend died mid-write). Logical
// correctness is unaffected either way — reads serve from the healthy
// replicas — but the container has lost redundancy until repaired.
func (p *FS) replicationHealth(path string) (replicaHealth, error) {
	h := replicaHealth{Width: 1}
	s := p.stripedBackend()
	if s != nil {
		h.Width = s.LayoutWidth()
		h.Configured = s.Layout().Descriptor()
	}
	desc, err := p.ContainerLayout(path)
	if err != nil {
		h.DescriptorErr = err.Error()
	}
	h.Descriptor = desc
	if s == nil || h.Width <= 1 {
		return h, nil
	}
	dirs, err := p.replicaDirs(path)
	if err != nil {
		return h, err
	}
	backends := s.Backends()
	for _, dir := range dirs {
		full := path
		rel := ""
		if dir != "" {
			full = path + "/" + dir
			rel = dir + "/"
		}
		// Every file in one directory shares the directory's replica
		// set (canonical rule or hostdir rule — see the layout
		// contract), so owners are computed once per directory. Probe
		// with a marker name so the path is file-like, not the dir.
		owners := s.ReplicasFor(full + "/x")
		views, names := scanReplicaDir(backends, owners, full)
		// Raw-signature fast path: replicas whose (name, size) sets
		// fold to the same signature need no per-file diff.
		agreed := true
		var sig0 uint64
		for i, b := range owners {
			if views[b] == nil {
				agreed = false
				break
			}
			sig := viewSignature(views[b])
			if i == 0 {
				sig0 = sig
			} else if sig != sig0 {
				agreed = false
				break
			}
		}
		h.Files += len(names)
		if agreed {
			continue
		}
		for _, name := range names {
			prob := replicaProblem{Path: rel + name, Want: len(owners)}
			missing, diverged := false, false
			var present []int64
			for _, b := range owners {
				view := views[b]
				size, ok := int64(0), false
				if view != nil {
					size, ok = view[name]
				}
				prob.Copies = append(prob.Copies, replicaCopy{Backend: b, Size: size, Missing: !ok})
				if !ok {
					missing = true
				} else {
					present = append(present, size)
				}
			}
			for _, sz := range present[1:] {
				if sz != present[0] {
					diverged = true
				}
			}
			prob.Diverged = diverged
			if missing || diverged {
				if missing {
					h.UnderReplicated++
				}
				if diverged {
					h.Diverged++
				}
				h.Problems = append(h.Problems, prob)
			}
		}
	}
	return h, nil
}

// copyReplica copies src (on backend from) to the same container-
// relative path on backend to, creating parent directories — the
// re-replication primitive. The destination is truncated first so a
// diverged longer-than-source copy cannot survive as a hybrid.
func copyReplica(backends []posix.FS, from, to int, path string) error {
	sfd, err := backends[from].Open(path, posix.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("plfs: repair source %s: %w", path, err)
	}
	defer backends[from].Close(sfd)
	if err := posix.MkdirAll(backends[to], gopath.Dir(gopath.Clean("/"+path)), 0o755); err != nil {
		return fmt.Errorf("plfs: repair mkdir for %s: %w", path, err)
	}
	dfd, err := backends[to].Open(path, posix.O_CREAT|posix.O_TRUNC|posix.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("plfs: repair destination %s: %w", path, err)
	}
	defer backends[to].Close(dfd)
	b := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(b)
	buf := *b
	var off int64
	for {
		n, err := backends[from].Pread(sfd, buf, off)
		if err != nil {
			return fmt.Errorf("plfs: repair read %s: %w", path, err)
		}
		if n == 0 {
			return nil
		}
		if err := posix.WriteFull(backends[to], dfd, buf[:n], off); err != nil {
			return fmt.Errorf("plfs: repair write %s: %w", path, err)
		}
		off += int64(n)
	}
}

// repairReplication re-replicates the container at path: every missing
// copy is rebuilt from the largest surviving replica (droppings are
// append-only, so the largest copy strictly contains every shorter
// one). Diverged files — present copies that disagree — are refused
// unless force is set, because overwriting a copy destroys forensic
// state; with force the longest copy wins and the shorter ones are
// rewritten. A second replicationHealth pass after a successful repair
// reports clean.
func (p *FS) repairReplication(path string, force bool) (repairReport, error) {
	var rep repairReport
	s := p.stripedBackend()
	if s == nil || s.LayoutWidth() <= 1 {
		return rep, nil
	}
	h, err := p.replicationHealth(path)
	if err != nil {
		return rep, err
	}
	backends := s.Backends()
	var firstErr error
	for _, prob := range h.Problems {
		if prob.Diverged && !force {
			rep.Skipped++
			continue
		}
		// Source: the largest present copy.
		src, best := -1, int64(-1)
		for _, c := range prob.Copies {
			if !c.Missing && c.Size > best {
				src, best = c.Backend, c.Size
			}
		}
		if src < 0 {
			// No copy left anywhere: nothing to repair from.
			rep.Skipped++
			continue
		}
		full := path + "/" + prob.Path
		for _, c := range prob.Copies {
			if c.Backend == src || (!c.Missing && c.Size == best) {
				continue
			}
			if err := copyReplica(backends, src, c.Backend, full); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			rep.Repaired++
		}
	}
	// Re-persist a missing or corrupt layout descriptor so the healed
	// container records its identity again.
	if h.DescriptorErr != "" || h.Descriptor == "" {
		if err := p.rewriteLayoutDescriptor(path, s.Layout().Descriptor()); err != nil && firstErr == nil {
			firstErr = err
		}
		rep.Repaired++
	}
	p.invalidateIndex(path)
	return rep, firstErr
}

// rewriteLayoutDescriptor force-writes the layout descriptor record.
func (p *FS) rewriteLayoutDescriptor(path, desc string) error {
	fd, err := p.backend.Open(path+"/"+layoutFile, posix.O_CREAT|posix.O_TRUNC|posix.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("plfs: rewrite layout descriptor: %w", err)
	}
	defer p.backend.Close(fd)
	rec := posix.MarshalLayoutDescriptor(desc)
	if err := posix.WriteFull(p.backend, fd, rec, 0); err != nil {
		return fmt.Errorf("plfs: rewrite layout descriptor: %w", err)
	}
	return nil
}
