package plfs

import (
	"fmt"
	"testing"

	"ldplfs/internal/iostats"
	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/posix"
)

// budget is a pinned op count as a formula in H hostdirs and D index
// droppings.
type budget struct{ base, perH, perD int64 }

func (b budget) at(h, d int) int64 { return b.base + b.perH*int64(h) + b.perD*int64(d) }

func (b budget) String() string { return fmt.Sprintf("%d + %d·H + %d·D", b.base, b.perH, b.perD) }

// TestOpBudget pins the backend ops of a read-only open and its first
// index lookup (Open + Size on a fresh handle), of a path Stat, of a
// writer's first write and of a writer's close, counted by an
// InstrumentFS on every backend, over one MemFS and over a mod-3
// StripedFS, for several (H, D). The listing side — one Stat to find the
// container, the root listing (one per backend striped) and one listing
// with attributes per hostdir — has no D term; only reading raw
// droppings does. Every read of a dropping — a merge's and seedClock's
// — reads it from the size its walk listed: 3 ops (open, one read of
// header and first chunk, close, of which close is meta). The rows:
//
//   - trusted: a fresh instance over a trusted flattened record: the
//     walk, the record read at its listed size (open, pread, close) and
//     the openhosts listing behind its trust. (While the record was
//     read to its Fstat, it cost 7 + H ops, 5 + H meta, on MemFS and
//     11 + H, 9 + H on mod-3.)
//   - revalidating: a second handle in that instance (close-to-open):
//     the walk alone, whose signature matches the cached index;
//   - stat: path Stat from a fresh instance over the trusted record:
//     the trusted row plus one Stat of the container directory (8 + H
//     ops, 6 + H meta, on MemFS and 12 + H, 10 + H on mod-3 while the
//     record was read to its Fstat). (When
//     Stat read per-writer size hints instead of the index, it cost
//     4 + 3·D ops on MemFS and 8 + 3·D on mod-3: an open, a read and a
//     close per closed writer's hint.)
//   - raw: a fresh instance with the record dropped: the walk and the
//     streaming merge. (While a merge's streams opened with an Fstat
//     and read the header alone, it cost 2 + H + 5·D ops, 2 + H + 2·D
//     meta, on MemFS and 4 + H + 5·D, 4 + H + 2·D on mod-3.)
//   - first write, fresh instance: pid 100's first write, in an
//     instance that has not yet written the container: seedClock's walk
//     and its read of every dropping, then the writer's creation — its
//     hostdir's Mkdir, its data dropping's open and fstat, its index
//     dropping's Stat, open and header write, its openhosts record
//     (Mkdir, open, close). The 4-byte write is staged, so its data
//     pwrite moved to the writer's close. (While seedClock read each
//     dropping to its Fstat — open, fstat, two preads, close — it cost
//     11 + H + 5·D ops, 6 + H + 2·D meta, on MemFS and 13 + H + 5·D,
//     8 + H + 2·D on mod-3; while every write landed before it
//     returned, one more op.)
//   - first write by a new pid: pid 101's first write in that
//     instance, whose clock is seeded: the writer's creation (10 ops
//     while the write's pwrite was part of it);
//   - writer close: pid 100 closes while pid 101 is open in the same
//     instance: its staged write's pwrite, its index flush (write,
//     fsync) and close, its data dropping's close and its openhosts
//     record's unlink. The instance's own writer table says a writer
//     is left, so the close lists nothing. (5 ops while the pwrite was
//     the write's; while every close listed openhosts, it cost 6 ops, 4
//     meta, on MemFS and 8, 6 on mod-3; a writer that also dropped a
//     size hint — an open, a write and a close — cost 9 and 11.) A
//     write and a close, taken together, cost what they did before
//     write-behind: the pwrite only moved.
//   - writer close, the other writer in another instance: pid 101, the
//     instance's last writer, closes while pid 102 is open in another
//     instance: the writer close plus the openhosts listing that finds
//     pid 102 (one listing per backend striped);
//   - last close: pid 102 lands its staged write, closes and finds no
//     writer left, so it flattens: the pwrite, the listing, then the
//     walk, the claim's O_EXCL create,
//     the merge of the D + 3 droppings (the fixture's and the three
//     writers') and the record's write, fsync, close and rename (one
//     rename per backend striped) — 13 + H + 3·(D + 3) ops,
//     7 + H + (D + 3) meta, on MemFS and 19 + H + 3·(D + 3),
//     13 + H + (D + 3) on mod-3. The listings are the listing rows'.
//     The closing instance wrote one of those droppings and holds its
//     fold, but a flatten reads droppings from folds only when every
//     dropping has one, so all D + 3 are read back.
//   - last close, every dropping its own: one instance's D + 1 writers,
//     pids 200.., each on its own handle, wrote a fresh container, and
//     the last of them closes: the last close's row with every dropping
//     read from its writer's fold — no D term, 13 + H ops, 7 + H meta,
//     on MemFS and 19 + H, 13 + H on mod-3.
//   - last close, a size that disagrees / a resumed writer / a spilled
//     fold: the same, with one dropping its fold cannot vouch for — a
//     partial record appended behind the writer's back, a writer that
//     resumed the dropping its pid closed earlier, or a writer whose
//     records folded into more than idx.MaxFoldRuns runs — so every
//     dropping is read back as the last close's row reads them:
//     13 + H + 3·(D + 1) ops, 7 + H + (D + 1) meta, on MemFS and
//     19 + H + 3·(D + 1), 13 + H + (D + 1) on mod-3.
func TestOpBudget(t *testing.T) {
	type row struct{ total, meta budget }
	stores := []struct {
		name     string
		backends int
		rows     map[string]row
	}{
		{"memfs", 1, map[string]row{
			"trusted":      {budget{6, 1, 0}, budget{4, 1, 0}},
			"revalidating": {budget{2, 1, 0}, budget{2, 1, 0}},
			"stat":         {budget{7, 1, 0}, budget{5, 1, 0}},
			"raw":          {budget{2, 1, 3}, budget{2, 1, 1}},
			"writer close": {budget{6, 0, 0}, budget{3, 0, 0}},
			"writer close, the other writer in another instance": {budget{7, 0, 0}, budget{4, 0, 0}},
			"first write, fresh instance":                        {budget{10, 1, 3}, budget{6, 1, 1}},
			"first write by a new pid":                           {budget{9, 0, 0}, budget{5, 0, 0}},
			"last close":                                         {budget{22, 1, 3}, budget{10, 1, 1}},
			"last close, every dropping its own":                 {budget{13, 1, 0}, budget{7, 1, 0}},
			"last close, a size that disagrees":                  {budget{16, 1, 3}, budget{8, 1, 1}},
			"last close, a resumed writer":                       {budget{16, 1, 3}, budget{8, 1, 1}},
			"last close, a spilled fold":                         {budget{16, 1, 3}, budget{8, 1, 1}},
		}},
		{"mod-3", 3, map[string]row{
			"trusted":      {budget{10, 1, 0}, budget{8, 1, 0}},
			"revalidating": {budget{4, 1, 0}, budget{4, 1, 0}},
			"stat":         {budget{11, 1, 0}, budget{9, 1, 0}},
			"raw":          {budget{4, 1, 3}, budget{4, 1, 1}},
			"writer close": {budget{6, 0, 0}, budget{3, 0, 0}},
			"writer close, the other writer in another instance": {budget{9, 0, 0}, budget{6, 0, 0}},
			"first write, fresh instance":                        {budget{12, 1, 3}, budget{8, 1, 1}},
			"first write by a new pid":                           {budget{9, 0, 0}, budget{5, 0, 0}},
			"last close":                                         {budget{28, 1, 3}, budget{16, 1, 1}},
			"last close, every dropping its own":                 {budget{19, 1, 0}, budget{13, 1, 0}},
			"last close, a size that disagrees":                  {budget{22, 1, 3}, budget{14, 1, 1}},
			"last close, a resumed writer":                       {budget{22, 1, 3}, budget{14, 1, 1}},
			"last close, a spilled fold":                         {budget{22, 1, 3}, budget{14, 1, 1}},
		}},
	}
	const path = "/backend/c"
	for _, st := range stores {
		for _, hd := range [][2]int{{1, 1}, {1, 2}, {2, 4}, {4, 4}, {3, 6}} {
			h, d := hd[0], hd[1]
			t.Run(fmt.Sprintf("%s/H=%d/D=%d", st.name, h, d), func(t *testing.T) {
				mems := make([]posix.FS, st.backends)
				counted := make([]posix.FS, st.backends)
				plane := iostats.NewPlane()
				for i := range mems {
					mems[i] = posix.NewMemFS()
					counted[i] = posix.NewInstrumentFS(mems[i], plane, posix.WithLayerName(fmt.Sprint("b", i)))
				}
				bare, store := mems[0], counted[0]
				if st.backends > 1 {
					bare, store = posix.NewStripedFS(mems...), posix.NewStripedFS(counted...)
				}
				if err := bare.Mkdir("/backend", 0o755); err != nil {
					t.Fatal(err)
				}
				admin := newHostdirs(bare, h)
				writeN1(t, admin, path, d, 2, 64)

				count := func() (total, meta int64) {
					for i := range counted {
						ls := plane.Layer(fmt.Sprint("b", i))
						for op := iostats.Op(0); op < iostats.NumOps; op++ {
							total += ls.OpCount(op)
						}
						meta += ls.OpCount(iostats.Meta)
					}
					return total, meta
				}
				check := func(name string, op func() error) {
					t.Helper()
					t0, m0 := count()
					if err := op(); err != nil {
						t.Fatal(err)
					}
					t1, m1 := count()
					want := st.rows[name]
					if got := t1 - t0; got != want.total.at(h, d) {
						t.Errorf("%s: %d backend ops, want %s = %d", name, got, want.total, want.total.at(h, d))
					}
					if got := m1 - m0; got != want.meta.at(h, d) {
						t.Errorf("%s: %d meta ops, want %s = %d", name, got, want.meta, want.meta.at(h, d))
					}
				}
				open := func(p *FS) func() error {
					return func() error {
						f, err := p.Open(path, posix.O_RDONLY, 0, 0)
						if err != nil {
							return err
						}
						_, err = f.Size()
						return err
					}
				}
				p := newHostdirs(store, h)
				check("trusted", open(p))
				check("revalidating", open(p))
				check("stat", func() error {
					_, err := newHostdirs(store, h).Stat(path)
					return err
				})
				if _, err := admin.DropFlattenedIndex(path); err != nil {
					t.Fatal(err)
				}
				check("raw", open(newHostdirs(store, h)))

				// Three writers, pids 100..102, each on its own handle: the
				// first two in one instance, the third in another.
				w, other := newHostdirs(store, h), newHostdirs(store, h)
				var handles [3]*File
				for i, in := range []*FS{w, w, other} {
					f, err := in.Open(path, posix.O_WRONLY, uint32(100+i), 0)
					if err != nil {
						t.Fatal(err)
					}
					handles[i] = f
				}
				write := func(i int) func() error {
					return func() error {
						_, err := handles[i].Write([]byte("tail"), int64(i*4), uint32(100+i))
						return err
					}
				}
				check("first write, fresh instance", write(0))
				check("first write by a new pid", write(1))
				if err := write(2)(); err != nil {
					t.Fatal(err)
				}
				check("writer close", func() error { return handles[0].Close(100) })
				check("writer close, the other writer in another instance", func() error { return handles[1].Close(101) })
				check("last close", func() error { return handles[2].Close(102) })

				// One instance's writers, pids 200..200+D, on a fresh
				// container; spoil may leave pid 200's dropping one its
				// fold cannot vouch for before the first D close.
				ownClose := func(name, c string, spoil func(in *FS, c string, hs []*File) error) {
					t.Helper()
					in := newHostdirs(store, h)
					hs := make([]*File, d+1)
					for i := range hs {
						f, err := in.Open(c, posix.O_CREAT|posix.O_WRONLY, uint32(200+i), 0o644)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := f.Write([]byte("tail"), int64(4*i), uint32(200+i)); err != nil {
							t.Fatal(err)
						}
						hs[i] = f
					}
					if spoil != nil {
						if err := spoil(in, c, hs); err != nil {
							t.Fatal(err)
						}
					}
					for i := 0; i < d; i++ {
						if err := hs[i].Close(uint32(200 + i)); err != nil {
							t.Fatal(err)
						}
					}
					check(name, func() error { return hs[d].Close(uint32(200 + d)) })
				}
				ownClose("last close, every dropping its own", "/backend/own", nil)
				ownClose("last close, a size that disagrees", "/backend/torn", func(in *FS, c string, hs []*File) error {
					if err := hs[0].Sync(200); err != nil {
						return err
					}
					fd, err := bare.Open(indexDropping(in.hostdir(c, 200), 200), posix.O_WRONLY|posix.O_APPEND, 0)
					if err != nil {
						return err
					}
					defer bare.Close(fd)
					_, err = bare.Write(fd, []byte("torn tail"))
					return err
				})
				ownClose("last close, a resumed writer", "/backend/resumed", func(in *FS, c string, hs []*File) error {
					if err := hs[0].Close(200); err != nil {
						return err
					}
					f, err := in.Open(c, posix.O_WRONLY, 200, 0)
					if err != nil {
						return err
					}
					hs[0] = f
					_, err = f.Write([]byte("more"), 1<<20, 200)
					return err
				})
				ownClose("last close, a spilled fold", "/backend/spilled", func(in *FS, c string, hs []*File) error {
					// Lengths 1 and 2 in turn: no record continues a run.
					for i := 0; i <= idx.MaxFoldRuns; i++ {
						if _, err := hs[0].Write([]byte("ab")[:1+i%2], int64(1<<20+4*i), 200); err != nil {
							return err
						}
					}
					return nil
				})
			})
		}
	}
}
