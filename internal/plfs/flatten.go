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
// merge. The record is written atomically (temp + rename, the temp file
// created O_EXCL), so a crashed flatten leaves at worst a dead temp file
// that goes with the container, and flattens racing each other publish
// one whole record after the other, never a half-record.
//
// One flatten per set of last closers. A close first asks its own
// instance: while the instance still holds another writer on the
// container, the close neither lists openhosts nor flattens, since that
// writer's close will (File.Close). Only an instance's last writer lists
// openhosts, because other instances' writers are visible only there;
// a writer whose openhosts record never landed still holds its own
// instance's closes back. A collective close (mpiio's File.Close) closes
// ranks other than 0 first and rank 0 after a gather, so of a
// communicator's instances only rank 0's can find no writer left: the
// others close with File.CloseSending, which neither lists openhosts nor
// flattens, and rank 0 closes with File.CloseGathered, which lists and
// flattens if any rank of the communicator had a writer. Such a
// communicator marks the container open with one openhosts record, made
// by rank 0's handle at the collective open (File.MarkComm), and its
// writers make none of their own; rank 0's close removes that record
// after retiring its writer and before it lists, so the listing finds
// the writers of other instances and communicators only.
// Instances whose last writers close at once each clear their openhosts
// record before any of them looks, so each finds no writer left. Their
// temp name is therefore a claim, keyed by the
// generation they would write and the raw signature of the droppings
// they would merge (flattenClaim): the one whose O_EXCL create succeeds
// merges and publishes; the others return before merging. (A closer
// that looks only once the record is published writes the next
// generation, as any later last close does: a repaired torn tail can
// bring a dropping back to its old size, so a matching signature does
// not prove a record current to a closer.) A claim left by a crash
// blocks only a flatten of that identical dropping set at that
// generation — a write that grows a dropping changes the signature —
// and goes when the container is unlinked. A command's flatten (plfsctl
// compact) claims nothing: its temp name is its own (flattenedTemp), so
// it may race a closer, and each publishes a whole record.
//
// Where a flatten reads a dropping from. Every writer folds the records
// it appends into timestamped runs (idx.Fold) — one run for an N-1
// writer, a streaming appender or each writer of a round-robin wide
// write. A writer that resumed an existing dropping, or that a truncate
// rebound, has no fold, and a fold that would pass idx.MaxFoldRuns runs
// is dropped. A retired writer's fold stays on its container record
// until the instance's last writer closes and hands every fold to the
// flatten; a truncate, a compaction, an unlink or a rename through the
// instance forgets them. A collective close adds the folds its other
// ranks gathered to it as bytes (File.CloseSending, CloseGathered). The
// flatten still lists the container first, and its raw signature still
// comes from that listing. A listed dropping can be read from a fold
// only if the fold describes its path and its listed size is exactly
// the header plus one record per record folded — the evidence the raw
// signature trusts. If every listed dropping can, the flatten reads
// none of them back; otherwise it streams them all from their listed
// sizes, as a command's flatten does: sourcing only some would save
// their backend ops but not the merge's wait on the rest. Either way
// the record holds the same bytes, since a fold's stream yields the
// records its dropping's stream would.
package plfs

import (
	"errors"
	"fmt"
	"maps"
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

// flattenedTemp names the temp file a command's flatten writes its
// record to before renaming it over flattenedPath(container, gen): it
// carries this instance's nonce and a count of its flattens, so no other
// flatten, in this instance or another, shares it. parseFlattenedGen
// rejects it.
func (p *FS) flattenedTemp(container string, gen uint64) string {
	return fmt.Sprintf("%s.tmp.%x.%d", flattenedPath(container, gen), p.flattenNonce, p.flattens.Add(1))
}

// flattenClaim names the temp file of a last closer's flatten: the same
// for every closer about to write generation gen from droppings with raw
// signature raw, so creating it O_EXCL elects one of them (see the
// package doc). parseFlattenedGen rejects it.
func flattenClaim(container string, gen, raw uint64) string {
	return fmt.Sprintf("%s.tmp.%016x", flattenedPath(container, gen), raw)
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
func (st indexState) rawSignature(container string) uint64 {
	rel := make([]string, len(st.droppings))
	sizes := make([]int64, len(st.droppings))
	for i, d := range st.droppings {
		rel[i] = strings.TrimPrefix(d, container+"/")
		sizes[i] = st.stats[i].Size
	}
	return idx.RawSignature(rel, sizes)
}

// FlattenedInfo describes one container's newest flattened record.
type FlattenedInfo struct {
	Generation uint64
	Extents    int // the table's extents, expanded
	Size       int64
	// Version is the record's format version; Runs and Singles are how
	// it spells the table (a version 1 record has no runs).
	Version       uint64
	Runs, Singles int
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
	st, err := p.listIndexState(path)
	if err != nil {
		return IndexHealth{}, err
	}
	h := IndexHealth{IndexDroppings: len(st.droppings), RawEntries: rawEntries(st.stats)}
	recs, err := p.openHosts(path)
	if err != nil {
		return IndexHealth{}, err
	}
	h.OpenWriters = len(recs)
	if len(st.flatGens) == 0 {
		return h, nil
	}
	gen, fl, trusted, err := p.newestFlattened(path, st)
	info := &FlattenedInfo{Generation: gen, Fresh: trusted, Err: err}
	if fl != nil {
		info.Extents, info.Size = fl.Index.NumExtents(), fl.Index.Size()
		info.Version, info.Runs, info.Singles = fl.Version, fl.Runs, fl.Singles
	}
	h.Flattened = info
	h.StaleRecords = len(st.flatGens) - 1
	if !info.Fresh {
		h.StaleRecords++
	}
	return h, nil
}

// rawEntries counts the whole records in droppings of the given stats.
func rawEntries(stats []posix.Stat) int64 {
	var n int64
	for _, st := range stats {
		n += max((st.Size-idx.DroppingHeaderSize)/idx.EntrySize, 0)
	}
	return n
}

// newestFlattened reads the newest of the container's flattened records
// (st.flatGens must be non-empty) and reports whether a reader would
// trust it — the one statement of the package doc's third tolerance
// rule: the record is the generation its name says, its embedded
// signature matches the raw droppings as walked just now, and no
// writer holds the container open. The record is read only as far as
// the droppings' listed sizes allow (idx.FlattenedBound): one too large
// for them cannot have been built from them.
func (p *FS) newestFlattened(path string, st indexState) (gen uint64, fl *idx.Flattened, trusted bool, err error) {
	i := slices.Index(st.flatGens, slices.Max(st.flatGens))
	gen = st.flatGens[i]
	fl, err = idx.ReadFlattened(p.backend, flattenedPath(path, gen), st.flatSizes[i], idx.FlattenedBound(rawEntries(st.stats)))
	if err != nil {
		return gen, nil, false, err
	}
	trusted = fl.Generation == gen && fl.RawSig == st.rawSignature(path) && !p.hasOpenWriters(path)
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
	return p.writeFlattened(path, false, foldSources{})
}

// foldSources is what a last close brings its flatten besides the
// listing: the folds of the droppings its instance wrote, by path, and
// the fold encodings a collective close gathered from its peers.
type foldSources struct {
	own   map[string]*idx.Fold
	peers [][]byte
}

// pick returns, per dropping of the walk, the fold the merge reads it
// from: the instance's own, or else a peer's, listed at exactly the
// size of its records (idx.Fold.Holds). It returns nil — stream every
// dropping — unless every dropping has one. A peer's encoding that
// fails to decode contributes nothing.
func (src foldSources) pick(st indexState) []*idx.Fold {
	if len(src.own) == 0 && len(src.peers) == 0 {
		return nil
	}
	var peer map[string]*idx.Fold
	if len(src.peers) > 0 {
		listed := make(map[string]int64, len(st.droppings))
		for i, d := range st.droppings {
			listed[d] = st.stats[i].Size
		}
		peer = make(map[string]*idx.Fold)
		for _, enc := range src.peers {
			got, err := idx.DecodeFolds(enc, func(path string) (int64, bool) {
				size, ok := listed[path]
				return size, ok
			})
			if err == nil {
				maps.Copy(peer, got)
			}
		}
	}
	folds := make([]*idx.Fold, len(st.droppings))
	for i, d := range st.droppings {
		if f := src.own[d]; f != nil && f.Holds(st.stats[i].Size) {
			folds[i] = f
		} else if f := peer[d]; f != nil {
			folds[i] = f
		} else {
			return nil
		}
	}
	return folds
}

// writeFlattened performs the flatten: one streaming merge of the
// droppings as its walk listed them (merge, so the record holds
// exactly what its signature describes) — each from the fold src picks
// for it, if any — one atomic record write, old generations retired
// best-effort. A last closer's flatten (claim) writes under
// flattenClaim and, per the package doc, returns a zero FlattenedInfo
// before any merge when the claim is taken.
func (p *FS) writeFlattened(path string, claim bool, src foldSources) (FlattenedInfo, error) {
	st, err := p.listIndexState(path)
	if err != nil {
		return FlattenedInfo{}, err
	}
	if len(st.droppings) == 0 {
		return FlattenedInfo{}, fmt.Errorf("plfs: flatten %s: container has no index droppings", path)
	}
	raw := st.rawSignature(path)
	gen := uint64(1)
	if len(st.flatGens) > 0 {
		gen = slices.Max(st.flatGens) + 1
	}
	tmp := flattenClaim(path, gen, raw)
	if !claim {
		tmp = p.flattenedTemp(path, gen)
	}
	fd, err := p.backend.Open(tmp, posix.O_CREAT|posix.O_EXCL|posix.O_WRONLY, 0o644)
	if claim && errors.Is(err, posix.EEXIST) {
		return FlattenedInfo{}, nil
	}
	if err != nil {
		return FlattenedInfo{}, fmt.Errorf("plfs: flatten %s: create %s: %w", path, tmp, err)
	}
	global, _, err := p.mergeFrom(st, src.pick(st))
	if err != nil {
		p.backend.Close(fd)
		p.backend.Unlink(tmp)
		return FlattenedInfo{}, err
	}
	fl := &idx.Flattened{Generation: gen, RawSig: raw, Index: global}
	if err := idx.WriteFlattened(p.backend, flattenedPath(path, gen), tmp, fd, fl); err != nil {
		return FlattenedInfo{}, err
	}
	for _, g := range st.flatGens {
		p.backend.Unlink(flattenedPath(path, g))
	}
	return FlattenedInfo{Generation: gen, Extents: global.NumExtents(), Size: global.Size(), Fresh: true,
		Version: fl.Version, Runs: fl.Runs, Singles: fl.Singles}, nil
}

// flattenAtClose writes a flattened record when no writer holds the
// container open any more, reading droppings from src's folds where it
// can; File.Close calls it for an instance's last writer. Best-effort: a
// failed flatten costs the next cold open a streaming merge, nothing
// more.
func (p *FS) flattenAtClose(path string, src foldSources) {
	if p.hasOpenWriters(path) {
		return
	}
	p.writeFlattened(path, true, src)
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
	st, err := p.listIndexState(path)
	if err != nil {
		return 0, err
	}
	removed := 0
	var ferr error
	for _, g := range st.flatGens {
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
