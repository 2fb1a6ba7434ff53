// The concurrent read engine: parallel index reconstruction across a
// container's hostdirs and droppings, and parallel scatter-gather of one
// logical read across its data droppings.
//
// A PLFS read has two phases with very different shapes. Reconstruction
// is "read and parse every index dropping" — embarrassingly parallel
// per dropping, done once per container thanks to the shared cache in
// internal/plfs/readcache. The gather is "pread each resolved extent
// from its data dropping" — parallel per extent, since positional reads
// carry no file pointer (posix.FS requires concurrent-pread safety) and
// each extent lands in a disjoint slice of the caller's buffer.
package plfs

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldplfs/internal/iostats"
	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/plfs/readcache"
	"ldplfs/internal/posix"
)

// defaultWorkerCap bounds the engines' fan-out. A pool overlaps waits,
// so what it buys depends on the backend: OSFS stops scaling near 8
// concurrent preads, where the page cache's memcpy bandwidth saturates,
// and a service-limited backend scales with its service slots. MemFS
// copies under one mutex and never scales at all — fan-out over it is
// pure hand-off cost, which is why the gather measures before it fans
// out (serialBelow).
const defaultWorkerCap = 8

// serialBelow is the mean per-batch latency under which a gather runs
// its batches inline instead of through the pool: handing a batch to a
// worker costs a few microseconds, so a pool only pays when a batch
// outlasts that. Measured: about 1.5 us on cold_open_wide (MemFS
// copying a few records), 37-40 us on n1_strided_shim (a 128 KiB
// preadv), 400 us and up on the service-limited rig — the one place the
// pool pays; 10 us parts the first from the rest. gateway_mixed's 1 KiB
// preads read 11-18 us from inside a busy process, and measure the
// same either way.
const serialBelow = 10 * time.Microsecond

// gatherState is what an instance has learnt about its backend's read
// latency, and how its gathers ran as a result.
type gatherState struct {
	// batchNs is the running mean (1/8 per round) of one batch's latency;
	// 0 = nothing observed yet. Load, then Store: concurrent plans may
	// overwrite each other's sample, which costs the mean one observation.
	batchNs atomic.Int64
	now     func() time.Time // time.Now; tests inject a clock their backend advances
	serial  *iostats.Counter // multi-batch rounds run inline
	pooled  *iostats.Counter // multi-batch rounds run through the pool
}

func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > defaultWorkerCap {
		n = defaultWorkerCap
	}
	if n < 1 {
		n = 1
	}
	return n
}

// runParallel invokes fn(0..n-1) on a bounded pool of workers and waits
// for all of them. workers <= 1 degrades to a plain loop.
func runParallel(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// indexState is one walk of a container's index metadata: every index
// dropping in deterministic (hostdir, name) order with the attributes
// its hostdir's listing gave it, and the generations of the flattened
// global index records at the container root with their listed sizes.
type indexState struct {
	droppings []string
	stats     []posix.Stat
	flatGens  []uint64
	flatSizes []int64
}

// listIndexState walks the container once: the root listing, then one
// listing per hostdir fanned out across the worker pool, every listing
// with attributes. The droppings' and the flattened records' sizes and
// mtimes come with their names, so the walk costs H + 1 listings
// whatever the number of droppings, and every read of what it lists
// reads at the listed size.
func (p *FS) listIndexState(path string) (indexState, error) {
	dirs, err := posix.ReaddirStat(p.backend, path)
	if err != nil {
		return indexState{}, fmt.Errorf("plfs: list container: %w", err)
	}
	var st indexState
	var hostdirs []string
	for _, d := range dirs {
		if d.IsDir() && strings.HasPrefix(d.Name, "hostdir.") {
			hostdirs = append(hostdirs, path+"/"+d.Name)
		} else if !d.IsDir() {
			if gen, ok := parseFlattenedGen(d.Name); ok {
				st.flatGens = append(st.flatGens, gen)
				st.flatSizes = append(st.flatSizes, d.Size)
			}
		}
	}
	lists := make([][]posix.DirEntryStat, len(hostdirs))
	errs := make([]error, len(hostdirs))
	runParallel(len(hostdirs), p.workers, func(i int) {
		lists[i], errs[i] = posix.ReaddirStat(p.backend, hostdirs[i])
	})
	entries := 0
	for i := range hostdirs {
		if errs[i] != nil {
			return indexState{}, errs[i]
		}
		entries += len(lists[i])
	}
	st.droppings = make([]string, 0, entries)
	st.stats = make([]posix.Stat, 0, entries)
	for i, hostdir := range hostdirs {
		for _, fe := range lists[i] {
			if strings.HasPrefix(fe.Name, "dropping.index.") {
				st.droppings = append(st.droppings, hostdir+"/"+fe.Name)
				st.stats = append(st.stats, fe.Stat)
			}
		}
	}
	return st, nil
}

// loadDroppings slurps every index dropping whole, fanning the loads
// out across the worker pool — the any-order fallback behind merge. A
// dropping's records past its listed size are dropped, as its stream
// would not have read them. Entry order across droppings is
// unspecified; idx.Build resolves by timestamp.
func (p *FS) loadDroppings(droppings []string, stats []posix.Stat) ([]idx.Entry, error) {
	results := make([][]idx.Entry, len(droppings))
	errs := make([]error, len(droppings))
	runParallel(len(droppings), p.workers, func(i int) {
		results[i], errs[i] = idx.ReadDropping(p.backend, droppings[i])
		results[i] = results[i][:min(int64(len(results[i])), rawEntries(stats[i:i+1]))]
	})
	total := 0
	for i := range droppings {
		if errs[i] != nil {
			// Deterministic: the first failing dropping in list order
			// wins, however the pool interleaved.
			return nil, errs[i]
		}
		total += len(results[i])
	}
	entries := make([]idx.Entry, 0, total)
	for _, r := range results {
		entries = append(entries, r...)
	}
	return entries, nil
}

// indexSignature summarises the container's index droppings (path, size,
// mtime per dropping) without parsing them — the cheap freshness check
// behind the cache's close-to-open revalidation.
func (p *FS) indexSignature(path string) (readcache.Signature, error) {
	st, err := p.listIndexState(path)
	if err != nil {
		return "", err
	}
	return st.signature(), nil
}

// signature is the cache Signature of the walked droppings.
func (st indexState) signature() readcache.Signature {
	var sb strings.Builder
	for i, d := range st.droppings {
		fmt.Fprintf(&sb, "%s|%d|%d\n", d, st.stats[i].Size, st.stats[i].Mtime)
	}
	return readcache.Signature(sb.String())
}

// merge reconstructs the merged index of one walk with the
// memory-bounded streaming merge: each dropping is read only as far as
// the walk listed its size, in bounded chunks (stream open and
// first-chunk read and decode fanned across the worker pool), and
// overlaid in global timestamp order through a k-way loser tree. The
// index holds exactly the records the walk's signature describes. A
// dropping whose records defy timestamp order (only adversarial inputs
// do) demotes the whole reconstruction to the slurp-and-sort path,
// which handles any order. The merge sees every record, so it also
// returns the newest timestamp among them (0 for none).
func (p *FS) merge(st indexState) (*idx.Index, uint64, error) { return p.mergeFrom(st, nil) }

// mergeFrom is merge with the records of dropping i taken from folds[i]
// instead of the backend when folds is not nil (a last close's flatten;
// see flatten.go): the same records in the same order, so the same
// index, and no backend op.
func (p *FS) mergeFrom(st indexState, folds []*idx.Fold) (*idx.Index, uint64, error) {
	streams := make([]*idx.DroppingStream, len(st.droppings))
	errs := make([]error, len(st.droppings))
	for i, f := range folds {
		streams[i] = f.Stream(p.streamChunk)
	}
	if folds == nil {
		runParallel(len(st.droppings), p.workers, func(i int) {
			streams[i], errs[i] = idx.OpenDroppingStream(p.backend, st.droppings[i], st.stats[i].Size, p.streamChunk)
		})
	}
	closeAll := func() {
		for _, s := range streams {
			if s != nil {
				s.Close()
			}
		}
	}
	for i := range st.droppings {
		if errs[i] != nil {
			closeAll()
			return nil, 0, errs[i]
		}
	}
	merged, newest, err := idx.MergeStreams(streams...)
	closeAll()
	if errors.Is(err, idx.ErrUnsorted) {
		entries, lerr := p.loadDroppings(st.droppings, st.stats)
		if lerr != nil {
			return nil, 0, lerr
		}
		return idx.Build(entries), newestTimestamp(entries), nil
	}
	return merged, newest, err
}

func newestTimestamp(entries []idx.Entry) uint64 {
	var newest uint64
	for _, e := range entries {
		newest = max(newest, e.Timestamp)
	}
	return newest
}

// buildIndex is the cache loader: one full reconstruction. It walks the
// container once, then takes the cheapest trustworthy path — the newest
// flattened record when newestFlattened trusts it (its runs expanded
// straight into the index, O(extents)), the streaming merge otherwise.
func (p *FS) buildIndex(path string) (*idx.Index, readcache.Signature, readcache.BuildKind, error) {
	st, err := p.listIndexState(path)
	if err != nil {
		return nil, "", readcache.BuildMerge, err
	}
	sig := st.signature()
	if len(st.flatGens) > 0 {
		if _, fl, trusted, _ := p.newestFlattened(path, st); trusted {
			return fl.Index, sig, readcache.BuildFlattened, nil
		}
	}
	index, _, err := p.merge(st)
	if err != nil {
		return nil, "", readcache.BuildMerge, err
	}
	return index, sig, readcache.BuildMerge, nil
}

// readJob is one non-hole extent of a scatter-gather and the slice of
// the caller's buffer it fills.
type readJob struct {
	x   idx.Extent
	dst []byte
}

// readBatch is one coalesced backend submission: n physically-
// contiguous segments of one dropping, occupying slots
// [off, off+n) of the plan's buffer vector.
type readBatch struct {
	pid   uint32
	phys  int64 // physical start offset in the dropping
	total int64 // byte span of the batch
	off   int   // first slot in plan.bufs / plan.slotJob
	n     int   // segment count
	pin   int   // the dropping's slot in plan.pins
}

// readPlan is the reusable scratch of one scatter-gather: extents,
// jobs, batch layout, the plan's pinned descriptors and per-batch error
// state. Plans are pooled so a warm read allocates nothing; every slice
// keeps its capacity across uses, and buffer, path and descriptor
// references are cleared on release so pooled plans pin neither caller
// memory nor descriptors.
type readPlan struct {
	extents  []idx.Extent
	jobs     []readJob
	jobBatch []int // batch index per job
	batches  []readBatch
	bufs     [][]byte        // batch-contiguous segment buffers
	slotJob  []int           // job index per buffer slot
	fill     []int           // per-batch slot cursor during layout
	errs     []error         // per-batch error (nil = batch succeeded)
	errOffs  []int64         // per-batch lowest failing logical offset
	open     map[uint32]int  // newest batch per dropping during layout
	paths    []string        // distinct droppings the plan reads...
	pins     []readcache.Pin // ...and the descriptors it holds on them
	round    []int           // the batches whose droppings are pinned now
	seen     time.Duration   // the batch latency this plan observed (runBatches)
}

var readPlanPool = sync.Pool{New: func() any { return new(readPlan) }}

// release clears buffer references (so the pool never retains caller
// buffers) and returns the plan to the pool.
func (plan *readPlan) release() {
	for i := range plan.bufs {
		plan.bufs[i] = nil
	}
	for i := range plan.jobs {
		plan.jobs[i].dst = nil
	}
	for i := range plan.errs {
		plan.errs[i] = nil
	}
	clear(plan.paths)
	plan.paths = plan.paths[:0]
	plan.extents = plan.extents[:0]
	plan.jobs = plan.jobs[:0]
	plan.jobBatch = plan.jobBatch[:0]
	plan.batches = plan.batches[:0]
	plan.bufs = plan.bufs[:0]
	plan.slotJob = plan.slotJob[:0]
	readPlanPool.Put(plan)
}

// grow resizes s to n zeroed elements, reusing its capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// scatterGather fills every segment from the index — the one gather
// behind both Read (a single segment) and ReadV. All segments' extents
// are queried into one shared plan: holes and past-EOF tails zero-fill
// inline, data extents are grouped by dropping into physically-
// contiguous batches of at most batchDepth segments (coalescing across
// segment boundaries), and each batch is one vectored pread —
// concurrently across batches when the configured fan-out allows.
// Segments are ascending, so jobs stay in logical order. Returns the
// bytes below EOF on success; on failure, the bytes of the segments'
// ranges below the lowest failing extent and that extent's error, per
// File.Read's short-read contract.
func (p *FS) scatterGather(f *File, segs []ReadSeg, index *idx.Index) (int64, error) {
	plan := readPlanPool.Get().(*readPlan)
	defer plan.release()

	var covered int64
	for _, s := range segs {
		if len(s.Buf) == 0 {
			continue
		}
		mark := len(plan.extents)
		plan.extents = index.QueryInto(plan.extents, s.Off, int64(len(s.Buf)))
		segCovered := 0
		for _, x := range plan.extents[mark:] {
			dst := s.Buf[x.LogicalOffset-s.Off : x.LogicalOffset-s.Off+x.Length]
			segCovered += len(dst)
			if x.Hole {
				clear(dst)
				continue
			}
			plan.jobs = append(plan.jobs, readJob{x, dst})
		}
		clear(s.Buf[segCovered:]) // past-EOF tail
		covered += int64(segCovered)
	}
	if len(plan.jobs) == 0 {
		return covered, nil
	}

	p.planBatches(f, plan)
	plan.pins = grow(plan.pins, len(plan.paths))
	for more := true; more; {
		// One round unless the plan is wider than the descriptor cap has
		// room for: then the cached droppings first, the rest as they fit.
		more = p.fds.Pin(plan.paths, plan.pins)
		plan.round = plan.round[:0]
		for bi := range plan.batches {
			if plan.pins[plan.batches[bi].pin].Live() {
				plan.round = append(plan.round, bi)
			}
		}
		p.runBatches(plan)
		p.fds.Unpin(plan.pins)
	}

	first := -1
	for bi := range plan.batches {
		if plan.errs[bi] != nil && (first < 0 || plan.errOffs[bi] < plan.errOffs[first]) {
			first = bi
		}
	}
	if first < 0 {
		return covered, nil
	}
	// Every data extent below the failing offset succeeded (it would
	// otherwise be a lower failing segment of its own batch), and holes
	// were filled inline — the prefix is intact.
	errOff := plan.errOffs[first]
	var prefix int64
	for _, s := range segs {
		if end := s.Off + int64(len(s.Buf)); end <= errOff {
			prefix += int64(len(s.Buf))
			continue
		}
		if s.Off < errOff {
			prefix += errOff - s.Off
		}
		break
	}
	return prefix, plan.errs[first]
}

// runBatches issues the batches of one round, inline or through the
// worker pool. Fan-out pays only when a batch outlasts the hand-off to a
// worker, which depends on the backend and not on the plan, so every
// round that has the choice feeds the instance's running per-batch mean
// (two clock reads) and runs inline once that mean is known to be under
// serialBelow. Nothing observed yet means pooled: a slow backend never
// pays for a serial first plan. An inline round observes its wall clock
// over its batches; a pooled round's wall clock says as much about the
// pool as about the backend, so it times its first batch where it runs —
// unless that batch failed: one that never reached the backend (its
// open failed) says nothing about it.
func (p *FS) runBatches(plan *readPlan) {
	nb := len(plan.round)
	if nb == 1 || p.workers <= 1 {
		for _, bi := range plan.round {
			p.readBatch(plan, bi)
		}
		return
	}
	g := &p.gather
	mean := g.batchNs.Load()
	if mean != 0 && mean < int64(serialBelow) {
		g.serial.Add(1)
		start := g.now()
		for _, bi := range plan.round {
			p.readBatch(plan, bi)
		}
		plan.seen = g.now().Sub(start) / time.Duration(nb)
	} else {
		g.pooled.Add(1)
		runParallel(nb, p.workers, func(i int) {
			if i != 0 {
				p.readBatch(plan, plan.round[i])
				return
			}
			start := g.now()
			p.readBatch(plan, plan.round[0])
			plan.seen = g.now().Sub(start)
		})
		if plan.errs[plan.round[0]] != nil {
			return
		}
	}
	sample := max(int64(plan.seen), 1)
	if mean != 0 {
		sample = mean + (sample-mean)/8
	}
	g.batchNs.Store(sample)
}

// planBatches groups the plan's jobs into coalesced submissions: a
// job extends a dropping's open batch while it continues that batch's
// physical run and the batch is under the depth bound, and starts a
// fresh batch otherwise — on the pin slot of the dropping's earlier
// batches, or on a new one for a dropping the plan has not met. A
// second pass lays the segments out batch-contiguously in the shared
// buffer vector so every batch's slice is ready for one Preadv.
func (p *FS) planBatches(f *File, plan *readPlan) {
	depth := p.batchDepth
	if plan.open == nil {
		plan.open = make(map[uint32]int, 16)
	}
	clear(plan.open)
	for _, j := range plan.jobs {
		prev, seen := plan.open[j.x.Pid]
		if seen && depth > 1 {
			b := &plan.batches[prev]
			if b.n < depth && b.phys+b.total == j.x.PhysicalOffset {
				b.n++
				b.total += j.x.Length
				plan.jobBatch = append(plan.jobBatch, prev)
				continue
			}
		}
		pin := len(plan.paths)
		if seen {
			pin = plan.batches[prev].pin
		} else {
			plan.paths = append(plan.paths, f.dataPath(j.x.Pid))
		}
		bi := len(plan.batches)
		plan.batches = append(plan.batches, readBatch{
			pid: j.x.Pid, phys: j.x.PhysicalOffset, total: j.x.Length, n: 1, pin: pin,
		})
		plan.open[j.x.Pid] = bi
		plan.jobBatch = append(plan.jobBatch, bi)
	}

	slots := 0
	for bi := range plan.batches {
		plan.batches[bi].off = slots
		slots += plan.batches[bi].n
	}
	if cap(plan.bufs) < slots {
		plan.bufs = make([][]byte, slots)
	}
	plan.bufs = plan.bufs[:slots]
	plan.slotJob = grow(plan.slotJob, slots)
	plan.fill = grow(plan.fill, len(plan.batches))
	plan.errs = grow(plan.errs, len(plan.batches))
	plan.errOffs = grow(plan.errOffs, len(plan.batches))
	for ji, j := range plan.jobs {
		bi := plan.jobBatch[ji]
		slot := plan.batches[bi].off + plan.fill[bi]
		plan.fill[bi]++
		plan.bufs[slot] = j.dst
		plan.slotJob[slot] = ji
	}
}

// readBatch issues one batch through the descriptor the plan holds on
// its dropping: a lone segment as a scalar pread (byte- and op-identical
// to the pre-batch engine), a multi-segment batch as one vectored pread.
func (p *FS) readBatch(plan *readPlan, bi int) {
	b := plan.batches[bi]
	pin := &plan.pins[b.pin]
	if pin.Err != nil {
		plan.failBatch(bi, 0, fmt.Errorf("plfs: open data dropping %s for read: %w", plan.paths[b.pin], pin.Err))
		return
	}
	if b.n == 1 {
		if err := posix.ReadFull(p.backend, pin.FD, plan.bufs[b.off], b.phys); err != nil {
			plan.failBatch(bi, 0, fmt.Errorf("plfs: read dropping (pid %d): %w", b.pid, err))
		}
		return
	}
	n, err := posix.Preadv(p.backend, pin.FD, plan.bufs[b.off:b.off+b.n], b.phys)
	if err == nil && n < b.total {
		err = fmt.Errorf("short read: want %d got %d", b.total, n)
	}
	if err != nil {
		plan.failBatch(bi, n, fmt.Errorf("plfs: read dropping (pid %d): %w", b.pid, err))
	}
}

// failBatch records a batch failure: n bytes landed in slot order, so
// the first incompletely-filled segment — lowest logical offset among
// the batch's casualties, since slots are laid out in logical order —
// anchors the error, mirroring the per-extent engine's contract that a
// failing extent contributes no bytes to the readable prefix.
func (plan *readPlan) failBatch(bi int, n int64, err error) {
	b := plan.batches[bi]
	rem := n
	for k := 0; k < b.n; k++ {
		l := int64(len(plan.bufs[b.off+k]))
		if rem >= l {
			rem -= l
			continue
		}
		plan.errOffs[bi] = plan.jobs[plan.slotJob[b.off+k]].x.LogicalOffset
		plan.errs[bi] = err
		return
	}
	// Defensive: an error with a full transfer still fails the batch's
	// last segment rather than vanishing.
	plan.errOffs[bi] = plan.jobs[plan.slotJob[b.off+b.n-1]].x.LogicalOffset
	plan.errs[bi] = err
}
