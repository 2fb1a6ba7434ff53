// The flattened-global-index lifecycle: who writes the persisted extent
// table, when readers trust it, and how operators inspect and repair it.
//
// A flattened record (index.flattened.<gen>, at the container root and so
// on the canonical backend 0 of a striped instance) is produced when the
// container's last writer closes and by plfsctl compact. Readers trust
// the newest record only after revalidating it against the backend: the
// record's embedded raw-dropping signature must match the droppings as
// they are now and no writer may hold the container open — any newer raw
// dropping or live writer silently demotes the read to the streaming
// merge. The record is written atomically (temp + rename, under a temp
// name no other flattener can share — see flattenedTemp), so a crashed
// flatten leaves at worst a dead temp file that goes with the container,
// and two last closers racing each other publish one whole record after
// the other, never a half-record.
package plfs

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/posix"
)

// flattenedPrefix names flattened global index records in the container
// root: index.flattened.<generation>.
const flattenedPrefix = "index.flattened."

func flattenedPath(container string, gen uint64) string {
	return fmt.Sprintf("%s/%s%d", container, flattenedPrefix, gen)
}

// flattenedTemp names the temp file one flatten writes its record to
// before renaming it over flattenedPath(container, gen). Ranks that
// close at once each see no writer left and each flatten, to the same
// generation; under a shared temp name the second's O_TRUNC open empties
// what the first then renames into place. So the name carries the pid
// whose close (or 0: whose command) started the flatten, this instance's
// nonce, and a count of this instance's flattens: ranks differ in the
// first, instances that share a pid in the second, one instance's
// concurrent flattens in the third. parseFlattenedGen rejects it.
func (p *FS) flattenedTemp(container string, gen uint64, pid uint32) string {
	return fmt.Sprintf("%s.tmp.%d.%x.%d", flattenedPath(container, gen), pid, p.flattenNonce, p.flattens.Add(1))
}

// parseFlattenedGen extracts the generation from a flattened record file
// name. Temp files and stray suffixes do not parse.
func parseFlattenedGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, flattenedPrefix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(name[len(flattenedPrefix):], 10, 64)
	return gen, err == nil
}

// rawSignature hashes the droppings' container-relative paths and sizes —
// the freshness token embedded in flattened records. It is rename- and
// copy-invariant (no mtimes, no absolute paths) while still changing
// whenever any dropping grows, shrinks, appears or disappears.
func rawSignature(container string, droppings []string, stats []posix.Stat) uint64 {
	rel := make([]string, len(droppings))
	sizes := make([]int64, len(droppings))
	for i, d := range droppings {
		rel[i] = strings.TrimPrefix(d, container+"/")
		sizes[i] = stats[i].Size
	}
	return idx.RawSignature(rel, sizes)
}

// FlattenedInfo describes one container's newest flattened record.
type FlattenedInfo struct {
	Generation uint64
	Extents    int
	Size       int64
	// Fresh reports whether the record would currently be trusted by a
	// reader: structurally valid, raw signature matching the droppings
	// now, and no live writers.
	Fresh bool
	// Err carries the parse/validation failure of a present-but-damaged
	// record (Fresh is false).
	Err error
}

// IndexHealth is the per-container metadata report behind plfsctl
// doctor: how much raw index a cold reader would have to merge, and
// whether a flattened record spares it that work.
type IndexHealth struct {
	IndexDroppings int   // raw index dropping files
	RawEntries     int64 // whole records across those droppings
	OpenWriters    int   // openhosts records (live or stale)
	Flattened      *FlattenedInfo
	StaleRecords   int // flattened records that are not the fresh newest
}

// IndexHealth inspects the container's index metadata without building
// an index.
func (p *FS) IndexHealth(path string) (IndexHealth, error) {
	if !p.IsContainer(path) {
		return IndexHealth{}, posix.ENOENT
	}
	droppings, flatGens, err := p.listIndexState(path)
	if err != nil {
		return IndexHealth{}, err
	}
	stats, err := p.statDroppings(droppings)
	if err != nil {
		return IndexHealth{}, err
	}
	h := IndexHealth{IndexDroppings: len(droppings)}
	for _, st := range stats {
		if n := (st.Size - idx.DroppingHeaderSize) / idx.EntrySize; n > 0 {
			h.RawEntries += n
		}
	}
	recs, err := p.OpenHosts(path)
	if err != nil {
		return IndexHealth{}, err
	}
	h.OpenWriters = len(recs)
	if len(flatGens) == 0 {
		return h, nil
	}
	gen, fl, trusted, err := p.newestFlattened(path, flatGens, droppings, stats)
	info := &FlattenedInfo{Generation: gen, Fresh: trusted, Err: err}
	if fl != nil {
		info.Extents = len(fl.Extents)
		info.Size = fl.Size
	}
	h.Flattened = info
	h.StaleRecords = len(flatGens) - 1
	if !info.Fresh {
		h.StaleRecords++
	}
	return h, nil
}

// newestFlattened reads the newest of the container's flattened records
// (flatGens must be non-empty) and reports whether a reader would trust
// it — the one statement of the package doc's third tolerance rule:
// the record is the generation its name says, its embedded signature
// matches the raw droppings as listed and statted just now, and no
// writer holds the container open.
func (p *FS) newestFlattened(path string, flatGens []uint64, droppings []string, stats []posix.Stat) (gen uint64, fl *idx.Flattened, trusted bool, err error) {
	gen = slices.Max(flatGens)
	fl, err = idx.ReadFlattened(p.backend, flattenedPath(path, gen))
	if err != nil {
		return gen, nil, false, err
	}
	trusted = fl.Generation == gen && fl.RawSig == rawSignature(path, droppings, stats) && !p.hasOpenWriters(path)
	return gen, fl, trusted, nil
}

// WriteFlattenedIndex builds the container's merged index and persists
// it as a new flattened record (plfs_flatten_index's modern form: the
// raw droppings stay untouched; only the merge result is memoised).
// Older generations are retired. The container must have no active
// writers — a record written under a live writer would be stale on
// arrival.
func (p *FS) WriteFlattenedIndex(path string) (FlattenedInfo, error) {
	if !p.IsContainer(path) {
		return FlattenedInfo{}, posix.ENOENT
	}
	if p.hasOpenWriters(path) {
		return FlattenedInfo{}, fmt.Errorf("plfs: flatten %s: container has active writers", path)
	}
	return p.writeFlattened(path, 0)
}

// writeFlattened performs the flatten: one streaming merge, one atomic
// record write, old generations retired best-effort. pid is the closer
// on whose behalf it runs (0 for a command).
func (p *FS) writeFlattened(path string, pid uint32) (FlattenedInfo, error) {
	droppings, flatGens, err := p.listIndexState(path)
	if err != nil {
		return FlattenedInfo{}, err
	}
	if len(droppings) == 0 {
		return FlattenedInfo{}, fmt.Errorf("plfs: flatten %s: container has no index droppings", path)
	}
	stats, err := p.statDroppings(droppings)
	if err != nil {
		return FlattenedInfo{}, err
	}
	raw := rawSignature(path, droppings, stats)
	global, _, err := p.mergeIndex(droppings)
	if err != nil {
		return FlattenedInfo{}, err
	}
	gen := uint64(1)
	if len(flatGens) > 0 {
		gen = slices.Max(flatGens) + 1
	}
	fl := &idx.Flattened{
		Generation: gen,
		RawSig:     raw,
		Size:       global.Size(),
		Extents:    global.Extents(),
	}
	if err := idx.WriteFlattened(p.backend, flattenedPath(path, gen), p.flattenedTemp(path, gen, pid), fl); err != nil {
		return FlattenedInfo{}, err
	}
	for _, g := range flatGens {
		p.backend.Unlink(flattenedPath(path, g))
	}
	return FlattenedInfo{Generation: gen, Extents: len(fl.Extents), Size: fl.Size, Fresh: true}, nil
}

// maybeAutoFlatten writes a flattened record when the container's last
// writer has closed. Best-effort, like the meta size hints: a failed
// flatten costs the next cold open a streaming merge, nothing more.
func (p *FS) maybeAutoFlatten(path string, pid uint32) {
	if p.cfg.Index.DisableAutoFlatten {
		return
	}
	if p.hasOpenWriters(path) {
		return
	}
	p.writeFlattened(path, pid)
}

// DropFlattenedIndex removes the container's flattened records (all
// generations), returning how many were unlinked. Raw droppings are
// untouched, so reads simply revert to the streaming merge. Used by
// doctor -fix on stale records it cannot refresh, and by tests forcing
// the merge path.
func (p *FS) DropFlattenedIndex(path string) (int, error) {
	if !p.IsContainer(path) {
		return 0, posix.ENOENT
	}
	_, flatGens, err := p.listIndexState(path)
	if err != nil {
		return 0, err
	}
	removed := 0
	var ferr error
	for _, g := range flatGens {
		if err := p.backend.Unlink(flattenedPath(path, g)); err != nil {
			if ferr == nil && !errors.Is(err, posix.ENOENT) {
				ferr = err
			}
			continue
		}
		removed++
	}
	if removed > 0 {
		p.invalidateIndex(path)
	}
	return removed, ferr
}
