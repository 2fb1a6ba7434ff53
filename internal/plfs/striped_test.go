package plfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ldplfs/internal/posix"
)

// newStripedFS builds a PLFS instance striped over n in-memory backends
// (each optionally wrapped in a FaultFS), returning the raw MemFS stores
// for physical inspection.
func newStripedFS(t *testing.T, n int, faulty bool, opts ...Option) (*FS, []*posix.MemFS) {
	t.Helper()
	mems := make([]*posix.MemFS, n)
	backends := make([]posix.FS, n)
	for i := range mems {
		mems[i] = posix.NewMemFS()
		if faulty {
			backends[i] = posix.NewFaultFS(mems[i])
		} else {
			backends[i] = mems[i]
		}
	}
	p := New(nil, append(opts, WithBackends(backends...))...)
	if err := p.Backend().Mkdir("/backend", 0o755); err != nil {
		t.Fatal(err)
	}
	return p, mems
}

// Droppings of a striped container must physically land on the backend
// the hostdir rule names — canonical metadata stays on backend 0.
func TestStripedContainerPlacement(t *testing.T) {
	p, mems := newStripedFS(t, 3, false, EngineOptions{NumHostdirs: 6})
	f, err := p.Open("/backend/data", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for pid := uint32(0); pid < 6; pid++ {
		if _, err := f.Write([]byte{byte(pid + 1)}, int64(pid), pid); err != nil {
			t.Fatal(err)
		}
	}
	// Canonical files live only on backend 0 (directories like meta/ and
	// openhosts/ are mirrored as empty skeleton, but their contents are
	// not). host.5 exists while writer 5 is still open; the meta size
	// hints appear at close.
	checkCanonical := func(name string) {
		t.Helper()
		if _, err := mems[0].Stat("/backend/data/" + name); err != nil {
			t.Fatalf("canonical %s missing on backend 0: %v", name, err)
		}
		for bi := 1; bi < 3; bi++ {
			if _, err := mems[bi].Stat("/backend/data/" + name); err == nil {
				t.Fatalf("canonical %s leaked onto backend %d", name, bi)
			}
		}
	}
	checkCanonical(".plfsaccess")
	checkCanonical("version")
	checkCanonical("openhosts/host.5")
	for pid := uint32(0); pid < 6; pid++ {
		f.Close(pid)
	}
	checkCanonical("meta/size.0")
	for pid := 0; pid < 6; pid++ {
		want := pid % 3 // hostdir k = pid % 6 hostdirs; backend = k % 3
		path := fmt.Sprintf("/backend/data/hostdir.%d/dropping.data.%d", pid, pid)
		for bi, m := range mems {
			_, err := m.Stat(path)
			if bi == want && err != nil {
				t.Errorf("pid %d dropping missing on backend %d: %v", pid, bi, err)
			}
			if bi != want && err == nil {
				t.Errorf("pid %d dropping leaked onto backend %d", pid, bi)
			}
		}
	}
	spread, err := p.ContainerSpread("/backend/data")
	if err != nil {
		t.Fatal(err)
	}
	if len(spread) != 3 {
		t.Fatalf("spread has %d buckets, want 3", len(spread))
	}
	for bi, n := range spread {
		if n != 4 { // 2 hostdirs per backend x (data + index)
			t.Errorf("backend %d holds %d droppings, want 4 (spread %v)", bi, n, spread)
		}
	}
	if got := p.NumBackends(); got != 3 {
		t.Fatalf("NumBackends = %d, want 3", got)
	}
}

// stripedScriptInstance is one configuration under the differential
// script: a PLFS instance plus its open handle.
type stripedScriptInstance struct {
	name string
	p    *FS
	f    *File
}

// TestStripedDifferentialScript drives one randomized workload script —
// writes, vectored writes, syncs, reads, truncates, close/reopen —
// against single-backend, 2-backend and 3-backend instances (plain MemFS
// and FaultFS-wrapped) and demands byte-identical reads, sizes and Stat
// results everywhere. Striping must be invisible to the application.
func TestStripedDifferentialScript(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			opts := EngineOptions{NumHostdirs: 5}
			var insts []*stripedScriptInstance
			for _, cfg := range []struct {
				name   string
				n      int
				faulty bool
				layout string
			}{
				{"single", 1, false, ""},
				{"single-fault", 1, true, ""},
				{"striped2", 2, false, ""},
				{"striped3", 3, false, ""},
				{"striped3-fault", 3, true, ""},
				{"replica2", 3, false, "replica-2"},
				{"replica2-fault", 3, true, "replica-2"},
				{"replica3", 3, false, "replica-3"},
				{"replica3-fault", 3, true, "replica-3"},
			} {
				p, _ := newStripedFS(t, cfg.n, cfg.faulty, opts, WithLayout(cfg.layout))
				f, err := p.Open("/backend/diff", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				insts = append(insts, &stripedScriptInstance{cfg.name, p, f})
			}
			ref := insts[0]

			rng := rand.New(rand.NewSource(seed))
			const maxOff = 1 << 16
			for step := 0; step < 200; step++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // write
					pid := uint32(rng.Intn(8))
					off := int64(rng.Intn(maxOff))
					buf := make([]byte, 1+rng.Intn(512))
					rng.Read(buf)
					for _, in := range insts {
						if n, err := in.f.Write(buf, off, pid); err != nil || n != len(buf) {
							t.Fatalf("[%s] step %d write: n=%d err=%v", in.name, step, n, err)
						}
					}
				case 4: // vectored write
					pid := uint32(rng.Intn(8))
					segs := make([]WriteSeg, 1+rng.Intn(4))
					for i := range segs {
						data := make([]byte, 1+rng.Intn(256))
						rng.Read(data)
						segs[i] = WriteSeg{Off: int64(rng.Intn(maxOff)), Data: data}
					}
					for _, in := range insts {
						if _, err := in.f.WriteV(segs, pid); err != nil {
							t.Fatalf("[%s] step %d writev: %v", in.name, step, err)
						}
					}
				case 5: // sync
					pid := uint32(rng.Intn(8))
					for _, in := range insts {
						if err := in.f.Sync(pid); err != nil {
							t.Fatalf("[%s] step %d sync: %v", in.name, step, err)
						}
					}
				case 6, 7: // read and compare
					off := int64(rng.Intn(maxOff))
					want := make([]byte, 1+rng.Intn(2048))
					wn, werr := ref.f.Read(want, off)
					if werr != nil {
						t.Fatalf("[%s] step %d read: %v", ref.name, step, werr)
					}
					for _, in := range insts[1:] {
						got := make([]byte, len(want))
						gn, gerr := in.f.Read(got, off)
						if gerr != nil {
							t.Fatalf("[%s] step %d read: %v", in.name, step, gerr)
						}
						if gn != wn || !bytes.Equal(got[:gn], want[:wn]) {
							t.Fatalf("[%s] step %d read diverged at off %d: n=%d vs %d", in.name, step, off, gn, wn)
						}
					}
				case 8: // size
					want, err := ref.f.Size()
					if err != nil {
						t.Fatal(err)
					}
					for _, in := range insts[1:] {
						got, err := in.f.Size()
						if err != nil || got != want {
							t.Fatalf("[%s] step %d size = %d, %v (want %d)", in.name, step, got, err, want)
						}
					}
				case 9: // occasional truncate
					if rng.Intn(4) != 0 {
						continue
					}
					size := int64(rng.Intn(maxOff))
					for _, in := range insts {
						if err := in.f.Trunc(size); err != nil {
							t.Fatalf("[%s] step %d trunc(%d): %v", in.name, step, size, err)
						}
					}
				}
			}

			// Final state: full logical content, Size and Stat must agree.
			wantSize, err := ref.f.Size()
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, wantSize)
			if _, err := ref.f.Read(want, 0); err != nil {
				t.Fatal(err)
			}
			for _, in := range insts[1:] {
				gotSize, err := in.f.Size()
				if err != nil || gotSize != wantSize {
					t.Fatalf("[%s] final size = %d, %v (want %d)", in.name, gotSize, err, wantSize)
				}
				got := make([]byte, gotSize)
				if _, err := in.f.Read(got, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("[%s] final content diverged", in.name)
				}
			}
			for _, in := range insts {
				for pid := uint32(0); pid < 8; pid++ {
					in.f.Close(pid)
				}
			}
			refStat, err := ref.p.Stat("/backend/diff")
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range insts[1:] {
				st, err := in.p.Stat("/backend/diff")
				if err != nil || st.Size != refStat.Size {
					t.Fatalf("[%s] Stat size = %d, %v (want %d)", in.name, st.Size, err, refStat.Size)
				}
			}
			// The striped instances must have genuinely fanned out.
			for _, in := range insts[1:] {
				spread, err := in.p.ContainerSpread("/backend/diff")
				if err != nil {
					t.Fatal(err)
				}
				used := 0
				for _, n := range spread {
					if n > 0 {
						used++
					}
				}
				if len(spread) > 1 && used < 2 {
					t.Fatalf("[%s] container did not fan out: spread %v", in.name, spread)
				}
			}

			// Flatten-mode differential: after the script, every backend
			// configuration must read the exact final bytes in all three
			// index regimes — flattened record trusted, the record
			// dropped, and a deliberately stale record present.
			for _, in := range insts {
				checkFlattenModes(t, in.name, in.p.Backend(), "/backend/diff", 5, want)
			}
		})
	}
}

// checkFlattenModes reads the container through three fresh instances —
// flattened forced on (record refreshed, trust asserted via cache
// stats), the record dropped (pure streaming merge), and with a
// deliberately stale record (newer raw droppings staged behind it,
// fallback asserted) — and demands byte-identical content each time.
// The staging write extends the file deterministically, so callers pass
// the pre-staging expectation in want.
func checkFlattenModes(t *testing.T, name string, backend posix.FS, path string, hostdirs int, want []byte) {
	t.Helper()
	readVia := func(p *FS, wantLen int64) []byte {
		t.Helper()
		f, err := p.Open(path, posix.O_RDONLY, 31337, 0)
		if err != nil {
			t.Fatalf("[%s] open: %v", name, err)
		}
		defer f.Close(31337)
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		if size != wantLen {
			t.Fatalf("[%s] size = %d, want %d", name, size, wantLen)
		}
		buf := make([]byte, size)
		if n, err := f.Read(buf, 0); err != nil || int64(n) != size {
			t.Fatalf("[%s] read = %d, %v", name, n, err)
		}
		return buf
	}

	// Forced on: refresh the record, then prove a cold instance loads it.
	freshP := New(backend, EngineOptions{NumHostdirs: hostdirs})
	if _, err := freshP.WriteFlattenedIndex(path); err != nil {
		t.Fatalf("[%s] flatten: %v", name, err)
	}
	onP := New(backend, EngineOptions{NumHostdirs: hostdirs})
	if got := readVia(onP, int64(len(want))); !bytes.Equal(got, want) {
		t.Fatalf("[%s] flattened-on read diverged", name)
	}
	if s := cacheStats(onP); s.FlattenedBuilds == 0 {
		t.Fatalf("[%s] flattened-on read did not load the record: %+v", name, s)
	}

	// Record dropped: pure streaming merge, through a fresh instance.
	if n, err := freshP.DropFlattenedIndex(path); err != nil || n == 0 {
		t.Fatalf("[%s] drop flattened = %d, %v", name, n, err)
	}
	offP := New(backend, EngineOptions{NumHostdirs: hostdirs})
	if got := readVia(offP, int64(len(want))); !bytes.Equal(got, want) {
		t.Fatalf("[%s] record-dropped read diverged", name)
	}
	if s := cacheStats(offP); s.Builds == 0 || s.FlattenedBuilds != 0 {
		t.Fatalf("[%s] record-dropped read did not run the merge: %+v", name, s)
	}
	// Put the record back for the stale stage to leave behind.
	if _, err := freshP.WriteFlattenedIndex(path); err != nil {
		t.Fatalf("[%s] re-flatten: %v", name, err)
	}

	// Deliberately stale: append past EOF without refreshing the record.
	staleTail := []byte("stale-mode differential tail")
	wP := New(backend, EngineOptions{NumHostdirs: hostdirs}, IndexOptions{DisableAutoFlatten: true})
	wf, err := wP.Open(path, posix.O_WRONLY, 31338, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write(staleTail, int64(len(want)), 31338); err != nil {
		t.Fatal(err)
	}
	if err := wf.Close(31338); err != nil {
		t.Fatal(err)
	}
	wantStale := append(append([]byte(nil), want...), staleTail...)
	staleP := New(backend, EngineOptions{NumHostdirs: hostdirs})
	if got := readVia(staleP, int64(len(wantStale))); !bytes.Equal(got, wantStale) {
		t.Fatalf("[%s] stale-record read diverged", name)
	}
	if s := cacheStats(staleP); s.FlattenedBuilds != 0 {
		t.Fatalf("[%s] stale record was trusted: %+v", name, s)
	}
}

// Container-level operations that rewrite or walk the whole container —
// partial truncate (index consolidation), CompactIndex, Flatten, Rename,
// Unlink — must work when droppings span backends.
func TestStripedContainerOps(t *testing.T) {
	p, mems := newStripedFS(t, 3, false, EngineOptions{NumHostdirs: 6})
	f, err := p.Open("/backend/ops", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const block = 512
	want := make([]byte, 6*block)
	for pid := uint32(0); pid < 6; pid++ {
		payload := bytes.Repeat([]byte{byte(pid + 1)}, block)
		copy(want[int(pid)*block:], payload)
		if _, err := f.Write(payload, int64(pid)*block, pid); err != nil {
			t.Fatal(err)
		}
	}
	for pid := uint32(0); pid < 6; pid++ {
		if err := f.Close(pid); err != nil {
			t.Fatal(err)
		}
	}

	// Compact: six index droppings on three backends merge into one.
	before, err := p.IndexDroppings("/backend/ops")
	if err != nil || before != 6 {
		t.Fatalf("index droppings before compact = %d, %v (want 6)", before, err)
	}
	if err := p.CompactIndex("/backend/ops"); err != nil {
		t.Fatal(err)
	}
	after, err := p.IndexDroppings("/backend/ops")
	if err != nil || after != 1 {
		t.Fatalf("index droppings after compact = %d, %v (want 1)", after, err)
	}
	readBack := func(path string, size int64) []byte {
		t.Helper()
		rf, err := p.Open(path, posix.O_RDONLY, 99, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer rf.Close(99)
		got := make([]byte, size)
		if n, err := rf.Read(got, 0); err != nil || int64(n) != size {
			t.Fatalf("read %s = %d, %v (want %d)", path, n, err, size)
		}
		return got
	}
	if got := readBack("/backend/ops", int64(len(want))); !bytes.Equal(got, want) {
		t.Fatal("content diverged after cross-backend compact")
	}

	// Partial truncate: consolidation must survive striped droppings.
	if err := p.Truncate("/backend/ops", 3*block); err != nil {
		t.Fatal(err)
	}
	if got := readBack("/backend/ops", 3*block); !bytes.Equal(got, want[:3*block]) {
		t.Fatal("content diverged after cross-backend truncate")
	}

	// Flatten gathers from all backends into one canonical flat file.
	if err := p.Flatten("/backend/ops", "/backend/ops.flat"); err != nil {
		t.Fatal(err)
	}
	st, err := p.Backend().Stat("/backend/ops.flat")
	if err != nil || st.Size != 3*block {
		t.Fatalf("flat file = %d bytes, %v (want %d)", st.Size, err, 3*block)
	}

	// Rename carries shadow hostdir trees along; Unlink clears them.
	if err := p.Rename("/backend/ops", "/backend/ops2"); err != nil {
		t.Fatal(err)
	}
	if got := readBack("/backend/ops2", 3*block); !bytes.Equal(got, want[:3*block]) {
		t.Fatal("content diverged after striped rename")
	}
	if err := p.Unlink("/backend/ops2"); err != nil {
		t.Fatal(err)
	}
	for bi, m := range mems {
		if _, err := m.Stat("/backend/ops2"); err == nil {
			t.Fatalf("container survived unlink on backend %d", bi)
		}
	}
}

// Stale-openhosts diagnosis must consult the backend that actually owns
// the writer's dropping: a live writer whose dropping lives on a shadow
// backend is not stale, and a record whose dropping is gone is — and
// ScrubOpenHosts repairs it.
func TestStripedOpenHostsDoctor(t *testing.T) {
	p, mems := newStripedFS(t, 3, false, EngineOptions{NumHostdirs: 6})
	f, err := p.Open("/backend/doc", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// pid 1 -> hostdir.1 -> backend 1: a live writer on a shadow backend.
	if _, err := f.Write([]byte("live"), 0, 1); err != nil {
		t.Fatal(err)
	}
	// pid 2 -> hostdir.2 -> backend 2: writer whose dropping we destroy
	// out from under it, simulating a lost shadow backend file.
	if _, err := f.Write([]byte("doomed"), 8, 2); err != nil {
		t.Fatal(err)
	}
	if err := mems[2].Unlink("/backend/doc/hostdir.2/dropping.data.2"); err != nil {
		t.Fatal(err)
	}

	recs, err := p.OpenHosts("/backend/doc")
	if err != nil {
		t.Fatal(err)
	}
	byPid := map[uint32]bool{}
	for _, r := range recs {
		byPid[r.Pid] = r.Stale
	}
	if stale, ok := byPid[1]; !ok || stale {
		t.Fatalf("pid 1 (live, shadow backend) misdiagnosed: records %+v", recs)
	}
	if stale, ok := byPid[2]; !ok || !stale {
		t.Fatalf("pid 2 (lost dropping) not flagged stale: records %+v", recs)
	}
	removed, err := p.ScrubOpenHosts("/backend/doc")
	if err != nil || removed != 1 {
		t.Fatalf("scrub removed %d, %v (want 1)", removed, err)
	}
	recs, err = p.OpenHosts("/backend/doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Pid != 1 || recs[0].Stale {
		t.Fatalf("after scrub: %+v", recs)
	}
	f.Close(1)
	f.Close(2)
}

// TestBatchDepthDifferential drives the randomized striped workload
// scripts at several batch depths — coalescing disabled, an odd depth
// that fragments batches mid-run, the default, and four times it —
// and demands byte-identical results everywhere: batching is a
// syscall-count optimisation, never a semantics change.
func TestBatchDepthDifferential(t *testing.T) {
	depths := []int{1, 3, DefaultBatchDepth, 256}
	for seed := int64(1); seed <= 3; seed++ {
		var refFinal []byte
		for _, d := range depths {
			p := New(nil,
				EngineOptions{NumHostdirs: 4},
				WithBackends(posix.NewMemFS(), posix.NewMemFS(), posix.NewMemFS()),
			)
			p.batchDepth, p.indexBatch = d, 8
			final := driveStridedScript(t, p, seed)
			if refFinal == nil {
				refFinal = final
				continue
			}
			if string(final) != string(refFinal) {
				t.Fatalf("seed %d: batch depth %d diverges from batch depth %d", seed, d, depths[0])
			}
		}
	}
}

// driveStridedScript runs one deterministic strided workload (writes
// via WriteV from several pids, interleaved reads, a truncate) and
// returns the final container bytes.
func driveStridedScript(t *testing.T, p *FS, seed int64) []byte {
	t.Helper()
	f, err := p.Open("/script", posix.O_CREAT|posix.O_RDWR, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const block = 512
	rnd := seed*2654435761 + 1
	next := func(n int64) int64 {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		v := rnd % n
		if v < 0 {
			v += n
		}
		return v
	}
	for round := 0; round < 6; round++ {
		for pid := uint32(0); pid < 4; pid++ {
			segs := make([]WriteSeg, 0, 8)
			for s := 0; s < 8; s++ {
				off := (int64(s)*4 + int64(pid)) * block
				data := make([]byte, block)
				for j := range data {
					data[j] = byte(int64(j) + off + next(251))
				}
				segs = append(segs, WriteSeg{Off: off, Data: data})
			}
			if _, err := f.WriteV(segs, pid); err != nil {
				t.Fatalf("seed %d round %d pid %d: %v", seed, round, pid, err)
			}
		}
		if round == 3 {
			if err := f.Trunc(next(8192) + 1024); err != nil {
				t.Fatal(err)
			}
		}
	}
	for pid := uint32(0); pid < 4; pid++ {
		if err := f.Close(pid); err != nil {
			t.Fatal(err)
		}
	}
	r, err := p.Open("/script", posix.O_RDONLY, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(99)
	size, err := r.Size()
	if err != nil {
		t.Fatal(err)
	}
	final := make([]byte, size)
	if n, err := r.Read(final, 0); err != nil || int64(n) != size {
		t.Fatalf("final read: n=%d err=%v", n, err)
	}
	return final
}
