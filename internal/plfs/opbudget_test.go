package plfs

import (
	"fmt"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
)

// budget is a pinned op count as a formula in H hostdirs and D index
// droppings.
type budget struct{ base, perH, perD int64 }

func (b budget) at(h, d int) int64 { return b.base + b.perH*int64(h) + b.perD*int64(d) }

func (b budget) String() string { return fmt.Sprintf("%d + %d·H + %d·D", b.base, b.perH, b.perD) }

// TestOpBudget pins the backend ops of a read-only open and its first
// index lookup (Open + Size on a fresh handle), of a path Stat and of a
// writer's close, counted by an InstrumentFS on every backend, over one
// MemFS and over a mod-3 StripedFS, for several (H, D). The listing
// side — one Stat to find the container, the root listing (one per
// backend striped) and one listing with attributes per hostdir — has no
// D term; only reading raw droppings does (5 ops each: open, fstat, two
// preads, close, of which fstat and close are meta). The rows:
//
//   - trusted: a fresh instance over a trusted flattened record: the
//     walk, the record (open, fstat, pread, close) and the openhosts
//     listing behind its trust;
//   - revalidating: a second handle in that instance (close-to-open):
//     the walk alone, whose signature matches the cached index;
//   - stat: path Stat from a fresh instance over the trusted record:
//     the trusted row plus one Stat of the container directory. (When
//     Stat read per-writer size hints instead of the index, it cost
//     4 + 3·D ops on MemFS and 8 + 3·D on mod-3: an open, a read and a
//     close per closed writer's hint.)
//   - raw: a fresh instance with the record dropped: the walk and the
//     streaming merge;
//   - writer close: one of two writers, each on its own handle, closes:
//     its index flush (write, fsync) and close, its data dropping's
//     close, its openhosts record's unlink and the openhosts listing
//     that finds the other writer still open. (A writer that also
//     dropped a size hint — an open, a write and a close — cost 9 ops on
//     MemFS and 11 on mod-3.)
func TestOpBudget(t *testing.T) {
	type row struct{ total, meta budget }
	stores := []struct {
		name     string
		backends int
		rows     map[string]row
	}{
		{"memfs", 1, map[string]row{
			"trusted":      {budget{7, 1, 0}, budget{5, 1, 0}},
			"revalidating": {budget{2, 1, 0}, budget{2, 1, 0}},
			"stat":         {budget{8, 1, 0}, budget{6, 1, 0}},
			"raw":          {budget{2, 1, 5}, budget{2, 1, 2}},
			"writer close": {budget{6, 0, 0}, budget{4, 0, 0}},
		}},
		{"mod-3", 3, map[string]row{
			"trusted":      {budget{11, 1, 0}, budget{9, 1, 0}},
			"revalidating": {budget{4, 1, 0}, budget{4, 1, 0}},
			"stat":         {budget{12, 1, 0}, budget{10, 1, 0}},
			"raw":          {budget{4, 1, 5}, budget{4, 1, 2}},
			"writer close": {budget{8, 0, 0}, budget{6, 0, 0}},
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
				admin := New(bare, EngineOptions{NumHostdirs: h})
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
				p := New(store, EngineOptions{NumHostdirs: h})
				check("trusted", open(p))
				check("revalidating", open(p))
				check("stat", func() error {
					_, err := New(store, EngineOptions{NumHostdirs: h}).Stat(path)
					return err
				})
				if _, err := admin.DropFlattenedIndex(path); err != nil {
					t.Fatal(err)
				}
				check("raw", open(New(store, EngineOptions{NumHostdirs: h})))

				w := New(store, EngineOptions{NumHostdirs: h})
				var handles [2]*File
				for i := range handles {
					pid := uint32(100 + i)
					f, err := w.Open(path, posix.O_WRONLY, pid, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write([]byte("tail"), int64(i*4), pid); err != nil {
						t.Fatal(err)
					}
					handles[i] = f
				}
				check("writer close", func() error { return handles[0].Close(100) })
				if err := handles[1].Close(101); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
