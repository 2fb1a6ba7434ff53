// The container doctor: one check-and-repair procedure that plfsctl
// prints locally and the gateway prints for a remote client. It covers
// the three states a container can be left in that a reader tolerates
// but an operator wants gone — openhosts records that outlived their
// writers, a flattened record that no longer matches the droppings, and
// replica sets a dead backend left short or diverged.
package plfs

import (
	"errors"
	"fmt"
	"io"

	"ldplfs/internal/posix"
)

// openHostRecord describes one openhosts entry — the marker an active
// writer drops at open and clears at close, or the one record a
// communicator's collective open drops for all of its ranks' writers
// and its collective close clears (File.MarkComm).
type openHostRecord struct {
	// Name is the entry's name in openhosts/.
	Name string
	// Pid is the writer's pid; a communicator's record names the pids
	// Pid..Last, and Last is Pid for a writer's own record.
	Pid, Last uint32
	// Comm marks a communicator's record.
	Comm bool
	// Stale marks a record none of whose pids has a data dropping: the
	// writers' state is gone (a pre-fix Trunc(0) leak, a crash between
	// container truncation and close, or a job that died before any
	// rank wrote), so nothing can still be writing under it. Stale
	// records distrust every flattened record and make CompactIndex
	// refuse the container.
	//
	// A communicator's record also reads stale in one window of a live
	// job: from its collective open until the first rank's first write
	// makes a data dropping. A doctor -fix in that window removes it,
	// and the job's writers then run unmarked, as a writer whose own
	// record never landed does.
	Stale bool
}

// maxCommPids bounds the pids a communicator's record may name. The
// doctor probes each named pid's data dropping, and a forged name
// claiming all 2^32 would keep it probing for hours; a name claiming
// more is not read as a record, as any other name that does not parse
// is not.
const maxCommPids = 1 << 20

// parseOpenHost reads an openhosts entry's name: host.<pid> for a
// writer's record, comm.<first>-<last>.<nonce> for a communicator's.
func parseOpenHost(name string) (rec openHostRecord, ok bool) {
	rec.Name = name
	if _, err := fmt.Sscanf(name, "host.%d", &rec.Pid); err == nil {
		rec.Last = rec.Pid
		return rec, true
	}
	if _, err := fmt.Sscanf(name, commPrefix+"%d-%d.", &rec.Pid, &rec.Last); err == nil &&
		rec.Last >= rec.Pid && rec.Last-rec.Pid < maxCommPids {
		rec.Comm = true
		return rec, true
	}
	return rec, false
}

// openHosts lists the container's openhosts records and diagnoses stale
// ones: a record is live while any pid it names has a data dropping,
// and a communicator's record counts once however many pids it names.
// The liveness probe stats through the instance's backend, so a writer
// whose dropping lives on a shadow backend is found there.
func (p *FS) openHosts(path string) ([]openHostRecord, error) {
	if !p.IsContainer(path) {
		return nil, posix.ENOENT
	}
	entries, err := p.backend.Readdir(path + "/" + openhostsDir)
	if err != nil {
		if errors.Is(err, posix.ENOENT) {
			return nil, nil
		}
		return nil, err
	}
	var out []openHostRecord
	for _, e := range entries {
		if e.IsDir {
			continue
		}
		rec, ok := parseOpenHost(e.Name)
		if !ok {
			continue
		}
		rec.Stale = true
		for pid := rec.Pid; rec.Stale; pid++ {
			_, err := p.backend.Stat(dataDropping(p.hostdir(path, pid), pid))
			rec.Stale = errors.Is(err, posix.ENOENT)
			if pid == rec.Last {
				break
			}
		}
		out = append(out, rec)
	}
	return out, nil
}

// scrubOpenHosts removes the container's stale openhosts records,
// returning how many were actually unlinked. Live records are left
// alone; a record that cannot be removed is not counted and the first
// failure is reported, so the doctor never claims success over a
// still-degraded container.
func (p *FS) scrubOpenHosts(path string) (int, error) {
	recs, err := p.openHosts(path)
	if err != nil {
		return 0, err
	}
	removed := 0
	var ferr error
	for _, r := range recs {
		if !r.Stale {
			continue
		}
		name := path + "/" + openhostsDir + "/" + r.Name
		if err := p.backend.Unlink(name); err != nil {
			if ferr == nil {
				ferr = fmt.Errorf("plfs: scrub %s: %w", name, err)
			}
			continue
		}
		removed++
	}
	return removed, ferr
}

// Doctor checks the container at path and writes its report to w. It
// reports openhosts records, how the droppings spread over the backends,
// index health and, under a replica layout, replication health.
//
// With fix it repairs, in this order. Stale openhosts records go first:
// they pin OpenWriters, so a flattened record may look stale only
// because of them. Then, against a re-taken health snapshot, a
// flattened record that is not fresh is refreshed when no writer is
// left and removed when writers are live (it can never become fresh
// again); a fresh record is never touched. Replication goes last:
// missing copies are rebuilt from the largest copy, and diverged copies
// only with force, because overwriting one destroys forensic state.
//
// healthy is false where the container still needs the operator: stale
// openhosts records or unclean replica sets without fix, or diverged
// copies without force. The report stops there. A failed check or
// repair returns its error, with the report written so far.
func (p *FS) Doctor(w io.Writer, path string, fix, force bool) (healthy bool, err error) {
	recs, err := p.openHosts(path)
	if err != nil {
		return false, err
	}
	live, stale := 0, 0
	for _, r := range recs {
		switch {
		case r.Stale && r.Comm:
			stale++
			fmt.Fprintf(w, "stale openhosts record: communicator of pids %d-%d (no data dropping — the job died, or no rank has written yet)\n", r.Pid, r.Last)
		case r.Stale:
			stale++
			fmt.Fprintf(w, "stale openhosts record: pid %d (no data dropping — writer state lost)\n", r.Pid)
		default:
			live++
		}
	}
	fmt.Fprintf(w, "doctor %s: %d openhosts records (%d live, %d stale)\n", path, len(recs), live, stale)
	if spread, err := p.ContainerSpread(path); err == nil && len(spread) > 1 {
		fmt.Fprintf(w, "backends: %d (droppings per backend: %v)\n", len(spread), spread)
	}
	h, err := p.IndexHealth(path)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "index: %d droppings, %d raw entries\n", h.IndexDroppings, h.RawEntries)
	switch {
	case h.Flattened == nil:
		fmt.Fprintln(w, "flattened index: none (cold opens run the streaming merge)")
	case h.Flattened.Err != nil:
		fmt.Fprintf(w, "flattened index: gen %d DAMAGED (%v); readers fall back to the merge\n",
			h.Flattened.Generation, h.Flattened.Err)
	case h.Flattened.Fresh:
		fmt.Fprintf(w, "flattened index: gen %d, %d extents, fresh\n",
			h.Flattened.Generation, h.Flattened.Extents)
	default:
		fmt.Fprintf(w, "flattened index: gen %d STALE (raw droppings or live writers are newer); readers fall back to the merge\n",
			h.Flattened.Generation)
	}
	if stale > 0 {
		if !fix {
			fmt.Fprintln(w, "container degraded: stat takes the slow merged-index path and compact is refused")
			fmt.Fprintln(w, "re-run with -fix to clear the stale records")
			return false, nil
		}
		removed, err := p.scrubOpenHosts(path)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "removed %d stale records; stat fast path and compact restored\n", removed)
		if h, err = p.IndexHealth(path); err != nil {
			return false, err
		}
	}
	if fix && h.Flattened != nil && !h.Flattened.Fresh {
		if h.OpenWriters == 0 {
			info, err := p.WriteFlattenedIndex(path)
			if err != nil {
				return false, fmt.Errorf("refresh flattened index: %w", err)
			}
			fmt.Fprintf(w, "refreshed flattened index to gen %d (%d extents)\n", info.Generation, info.Extents)
		} else {
			removed, err := p.DropFlattenedIndex(path)
			if err != nil {
				return false, fmt.Errorf("remove stale flattened records: %w", err)
			}
			fmt.Fprintf(w, "removed %d stale flattened record(s); writers are live, re-run compact after they close\n", removed)
		}
	}
	return p.doctorReplication(w, path, fix, force)
}

// doctorReplication is the replication half of Doctor: a no-op unless
// the instance runs a replica layout over its backends.
func (p *FS) doctorReplication(w io.Writer, path string, fix, force bool) (healthy bool, err error) {
	rh, err := p.replicationHealth(path)
	if err != nil {
		return false, err
	}
	if rh.Width <= 1 {
		return true, nil
	}
	fmt.Fprintf(w, "replication: %s, %d files, %d under-replicated, %d diverged\n",
		rh.Configured, rh.Files, rh.UnderReplicated, rh.Diverged)
	switch {
	case rh.DescriptorErr != "":
		fmt.Fprintf(w, "layout descriptor DAMAGED: %s\n", rh.DescriptorErr)
	case rh.Descriptor == "":
		fmt.Fprintf(w, "layout descriptor missing: running %s\n", rh.Configured)
	case rh.Descriptor != rh.Configured:
		fmt.Fprintf(w, "layout descriptor mismatch: container records %s, running %s\n",
			rh.Descriptor, rh.Configured)
	}
	for _, prob := range rh.Problems {
		state := "under-replicated"
		if prob.Diverged {
			state = "DIVERGED"
		}
		fmt.Fprintf(w, "  %s: %s (want %d copies:", prob.Path, state, prob.Want)
		for _, c := range prob.Copies {
			if c.Missing {
				fmt.Fprintf(w, " b%d=missing", c.Backend)
			} else {
				fmt.Fprintf(w, " b%d=%d", c.Backend, c.Size)
			}
		}
		fmt.Fprintln(w, ")")
	}
	if rh.Clean() {
		return true, nil
	}
	if !fix {
		fmt.Fprintln(w, "re-run with -fix to re-replicate missing copies")
		return false, nil
	}
	rep, err := p.repairReplication(path, force)
	if err != nil {
		return false, fmt.Errorf("re-replicate: %w", err)
	}
	fmt.Fprintf(w, "re-replicated %d cop(ies), skipped %d diverged file(s)\n", rep.Repaired, rep.Skipped)
	if rep.Skipped > 0 {
		fmt.Fprintln(w, "diverged copies left untouched; re-run with -fix -force to rebuild them from the longest copy")
		return false, nil
	}
	if rh, err = p.replicationHealth(path); err != nil {
		return false, err
	}
	if !rh.Clean() {
		return false, errors.New("container still unhealthy after repair")
	}
	fmt.Fprintln(w, "replication restored: every file at full copy count")
	return true, nil
}
