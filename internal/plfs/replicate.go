// Replication health and repair: the doctor-side of the replica-R
// layout. The striped composite degrades writes to the surviving
// replicas when a backend dies; the scanner here finds what the dead
// backend missed (under-replication) or half-applied (divergence), and
// the repairer re-replicates from the best surviving copy — PLFS's
// append-only droppings make "best" well-defined: the largest copy
// strictly contains every shorter one. The composite that places the
// copies also walks and rebuilds them (posix.StripedFS.Copies and
// Heal); this file only judges what it reports.
package plfs

import (
	"fmt"

	"ldplfs/internal/posix"
)

// replicaProblem is one file whose copy set is unhealthy.
type replicaProblem struct {
	Path     string // container-relative path
	Want     int    // expected copies (layout width)
	Copies   []posix.FileCopy
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

// replicationHealth scans the container at path: for every file that
// the layout says should exist in R copies, it compares the copies the
// striped composite lists on the owner backends. A missing copy is
// under-replication (a backend was dark while the file was written);
// present copies of different sizes are divergence (a backend died
// mid-write). Logical correctness is unaffected either way — reads
// serve from the healthy replicas — but the container has lost
// redundancy until repaired.
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
	for _, dir := range dirs {
		full, rel := path, ""
		if dir != "" {
			full, rel = path+"/"+dir, dir+"/"
		}
		files := s.Copies(full)
		h.Files += len(files)
		for _, f := range files {
			missing, diverged := false, false
			size := int64(-1) // the first present copy's
			for _, c := range f.Copies {
				switch {
				case c.Missing:
					missing = true
				case size < 0:
					size = c.Size
				case c.Size != size:
					diverged = true
				}
			}
			if missing {
				h.UnderReplicated++
			}
			if diverged {
				h.Diverged++
			}
			if missing || diverged {
				h.Problems = append(h.Problems, replicaProblem{
					Path: rel + f.Name, Want: len(f.Copies), Copies: f.Copies, Diverged: diverged,
				})
			}
		}
	}
	return h, nil
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
	var firstErr error
	for _, prob := range h.Problems {
		if prob.Diverged && !force {
			rep.Skipped++
			continue
		}
		// Source: the largest copy. Copies lists only files some owner
		// holds, so there is one.
		src, best := -1, int64(-1)
		for _, c := range prob.Copies {
			if !c.Missing && c.Size > best {
				src, best = c.Backend, c.Size
			}
		}
		full := path + "/" + prob.Path
		for _, c := range prob.Copies {
			if c.Backend == src || (!c.Missing && c.Size == best) {
				continue
			}
			if err := s.Heal(full, src, c.Backend); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("plfs: repair %s on backend %d from backend %d: %w", full, c.Backend, src, err)
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
	if _, err := posix.WriteFull(p.backend, fd, rec, 0); err != nil {
		return fmt.Errorf("plfs: rewrite layout descriptor: %w", err)
	}
	return nil
}
