package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
)

// sampleIndex is a three-extent table over two droppings, its size past
// the last extent's end (an upward truncate's size record).
func sampleIndex() *Index {
	return Build([]Entry{
		{LogicalOffset: 0, Length: 1000, PhysicalOffset: 0, Timestamp: 1, Pid: 1},
		{LogicalOffset: 1000, Length: 500, PhysicalOffset: 4096, Timestamp: 2, Pid: 2, Dropping: 1},
		{LogicalOffset: 2000, Length: 2500, PhysicalOffset: 1000, Timestamp: 3, Pid: 1},
		{LogicalOffset: 5000, Timestamp: 4, Pid: 1},
	})
}

func sampleFlattened() *Flattened {
	return &Flattened{Generation: 3, RawSig: 0xdeadbeef, Index: sampleIndex()}
}

// stridedIndex is an N-1 strided table: writers writers each putting
// blocks blocks of block bytes, block j of writer w at (j·writers+w)·block.
func stridedIndex(writers, blocks, block int) *Index {
	var es []Entry
	for w := 0; w < writers; w++ {
		for j := 0; j < blocks; j++ {
			es = append(es, Entry{
				LogicalOffset:  int64((j*writers + w) * block),
				Length:         int64(block),
				PhysicalOffset: int64(j * block),
				Timestamp:      uint64(len(es) + 1),
				Pid:            uint32(w),
			})
		}
	}
	return Build(es)
}

// forge encodes a record with exactly the runs and singles given — no
// fold, no checks — as a damaged or hostile writer could. Version 1 takes
// no runs.
func forge(version, gen uint64, size int64, runs []run, singles []Extent) []byte {
	hdr := FlattenedHeaderSize
	if version == 1 {
		hdr = flattenedV1HeaderSize
	}
	buf := make([]byte, hdr+len(runs)*FlattenedRunSize+len(singles)*FlattenedExtentSize+flattenedTrailerSize)
	binary.LittleEndian.PutUint64(buf[0:], FlattenedMagic)
	binary.LittleEndian.PutUint64(buf[8:], version)
	binary.LittleEndian.PutUint64(buf[16:], gen)
	binary.LittleEndian.PutUint64(buf[32:], uint64(size))
	if version == 1 {
		binary.LittleEndian.PutUint64(buf[40:], uint64(len(singles)))
	} else {
		binary.LittleEndian.PutUint64(buf[40:], uint64(len(runs)))
		binary.LittleEndian.PutUint64(buf[48:], uint64(len(singles)))
	}
	off := hdr
	for i := range runs {
		putRun(buf[off:], &runs[i])
		off += FlattenedRunSize
	}
	for i := range singles {
		putSingle(buf[off:], &singles[i])
		off += FlattenedExtentSize
	}
	binary.LittleEndian.PutUint64(buf[off:], fnvSum(buf[:off]))
	return buf
}

// reparse marshals ix, parses the bytes back with a generous bound, and
// fails unless the expansion is ix's table exactly.
func reparse(t *testing.T, tag string, ix *Index) *Flattened {
	t.Helper()
	f := &Flattened{Generation: 1, Index: ix}
	data := MarshalFlattened(f)
	got, err := UnmarshalFlattened(data, int64(ix.NumExtents()))
	if err != nil {
		t.Fatalf("%s: marshalled record rejected: %v", tag, err)
	}
	if got.Runs != f.Runs || got.Singles != f.Singles || got.Version != FlattenedVersion {
		t.Fatalf("%s: parsed %d runs %d singles v%d, wrote %d and %d", tag, got.Runs, got.Singles, got.Version, f.Runs, f.Singles)
	}
	if got.Index.Size() != ix.Size() {
		t.Fatalf("%s: size %d, table %d", tag, got.Index.Size(), ix.Size())
	}
	sameExtents(t, tag, got.Index.Extents(), ix.Extents())
	return got
}

func TestFlattenedRoundTrip(t *testing.T) {
	fs := posix.NewMemFS()
	want := sampleFlattened()
	if err := writeFlattenedFile(fs, "/flat", "/flat.tmp", want); err != nil {
		t.Fatal(err)
	}
	// The temp file must not survive a successful publish.
	if _, err := fs.Stat("/flat.tmp"); err == nil {
		t.Fatal("temp file left behind after publish")
	}
	size := listedSize(t, fs, "/flat")
	got, err := ReadFlattened(fs, "/flat", size, 6)
	if err != nil {
		t.Fatal(err)
	}
	// A listed size the file disagrees with fails: read short, or cut
	// before the record's end.
	for _, listed := range []int64{size - 1, size + 1} {
		if _, err := ReadFlattened(fs, "/flat", listed, 6); err == nil {
			t.Fatalf("a %d-byte record read at a listed %d bytes was accepted", size, listed)
		}
	}
	if got.Generation != want.Generation || got.RawSig != want.RawSig || got.Version != FlattenedVersion {
		t.Fatalf("header round trip: %+v vs %+v", got, want)
	}
	if got.Runs != 0 || got.Singles != 3 {
		t.Fatalf("sample spelled as %d runs and %d singles, want 0 and 3", got.Runs, got.Singles)
	}
	if got.Index.Size() != 5000 || got.Index.NumExtents() != 3 {
		t.Fatalf("loaded index: size %d extents %d", got.Index.Size(), got.Index.NumExtents())
	}
	sameExtents(t, "round trip", got.Index.Extents(), want.Index.Extents())

	// A version 1 record of the same table loads into the same index.
	v1, err := UnmarshalFlattened(forge(1, 3, 5000, nil, want.Index.Extents()), 6)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 || v1.Runs != 0 || v1.Singles != 3 || v1.Index.Size() != 5000 {
		t.Fatalf("v1 record: %+v", v1)
	}
	sameExtents(t, "v1", v1.Index.Extents(), want.Index.Extents())
}

// TestFlattenedLoadRoundTrip proves the record reproduces a built index
// exactly — extents, size and every query — on a table of random
// overlays (all singles) and on a strided one (all runs).
func TestFlattenedLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var entries []Entry
	for i := 0; i < 3000; i++ {
		entries = append(entries, Entry{
			LogicalOffset:  int64(rng.Intn(1 << 18)),
			Length:         int64(1 + rng.Intn(512)),
			PhysicalOffset: int64(i) * 512,
			Timestamp:      uint64(i + 1),
			Pid:            uint32(rng.Intn(4)),
		})
	}
	for _, built := range []*Index{Build(entries), stridedIndex(8, 300, 4096)} {
		loaded := reparse(t, "round trip", built).Index
		for q := 0; q < 100; q++ {
			off := int64(rng.Intn(int(built.Size())))
			length := int64(1 + rng.Intn(1<<14))
			g1, g2 := built.Query(off, length), loaded.Query(off, length)
			sameExtents(t, fmt.Sprintf("query(%d,%d)", off, length), g2, g1)
		}
	}
}

func TestFlattenedRejectsDamage(t *testing.T) {
	valid := MarshalFlattened(sampleFlattened())
	corrupt := func(mutate func([]byte) []byte) []byte {
		c := append([]byte(nil), valid...)
		return mutate(c)
	}
	cases := map[string][]byte{
		"torn tail":     valid[:len(valid)-5],
		"truncated mid": valid[:FlattenedHeaderSize+FlattenedExtentSize/2],
		"empty":         {},
		"short header":  valid[:FlattenedHeaderSize-1],
		"bad magic": corrupt(func(c []byte) []byte {
			c[0] ^= 0xff
			return c
		}),
		"bad version": corrupt(func(c []byte) []byte {
			binary.LittleEndian.PutUint64(c[8:], 99)
			return c
		}),
		"checksum flip": corrupt(func(c []byte) []byte {
			c[FlattenedHeaderSize+3] ^= 0x40
			return c
		}),
		"count too big": corrupt(func(c []byte) []byte {
			binary.LittleEndian.PutUint64(c[48:], 1<<60)
			return c
		}),
		"run count too big": corrupt(func(c []byte) []byte {
			binary.LittleEndian.PutUint64(c[40:], 1<<60)
			return c
		}),
	}
	// Checksum-valid records: structure validation must reject what the
	// checksum cannot.
	ext := sampleIndex().Extents()
	single := func(mut func(x []Extent)) []Extent {
		c := append([]Extent(nil), ext...)
		mut(c)
		return c
	}
	for _, v := range []uint64{1, 2} {
		cases[fmt.Sprintf("v%d overlapping extents", v)] = forge(v, 1, 5000, nil, single(func(x []Extent) { x[1].LogicalOffset = 500 }))
		cases[fmt.Sprintf("v%d out of order", v)] = forge(v, 1, 5000, nil, []Extent{ext[1], ext[0], ext[2]})
		cases[fmt.Sprintf("v%d size below data", v)] = forge(v, 1, 100, nil, ext)
		cases[fmt.Sprintf("v%d negative size", v)] = forge(v, 1, -1, nil, nil)
		cases[fmt.Sprintf("v%d negative length", v)] = forge(v, 1, 5000, nil, single(func(x []Extent) { x[2].Length = -1 }))
		cases[fmt.Sprintf("v%d zero length", v)] = forge(v, 1, 5000, nil, single(func(x []Extent) { x[2].Length = 0 }))
		cases[fmt.Sprintf("v%d negative physical", v)] = forge(v, 1, 5000, nil, single(func(x []Extent) { x[0].PhysicalOffset = -8 }))
		cases[fmt.Sprintf("v%d end overflows", v)] = forge(v, 1, math.MaxInt64, nil,
			[]Extent{{LogicalOffset: math.MaxInt64 - 10, Length: 20}})
	}
	good := run{logical: 0, length: 10, physical: 0, stride: 30, count: 4, pid: 1}
	withRun := func(mut func(r *run)) []run {
		r := good
		mut(&r)
		return []run{r}
	}
	cases["run of one"] = forge(2, 1, 200, withRun(func(r *run) { r.count = 1 }), nil)
	cases["run of zero"] = forge(2, 1, 200, withRun(func(r *run) { r.count = 0 }), nil)
	cases["run stride below length"] = forge(2, 1, 200, withRun(func(r *run) { r.stride = 5 }), nil)
	cases["run zero length"] = forge(2, 1, 200, withRun(func(r *run) { r.length = 0 }), nil)
	cases["run negative logical"] = forge(2, 1, 200, withRun(func(r *run) { r.logical = -30 }), nil)
	cases["run logical end overflows"] = forge(2, 1, math.MaxInt64, withRun(func(r *run) { r.stride = math.MaxInt64 / 2 }), nil)
	cases["run physical end overflows"] = forge(2, 1, 200, withRun(func(r *run) { r.physical = math.MaxInt64 - 30 }), nil)
	cases["run size below data"] = forge(2, 1, 99, []run{good}, nil)
	cases["runs out of order"] = forge(2, 1, 400, []run{{logical: 10, length: 10, stride: 30, count: 2}, good}, nil)
	cases["runs overlap"] = forge(2, 1, 400, []run{good, {logical: 35, length: 10, stride: 30, count: 2}}, nil)
	cases["run overlaps single"] = forge(2, 1, 400, []run{good}, []Extent{{LogicalOffset: 65, Length: 10}})
	cases["run overlaps single past its span"] = forge(2, 1, 400, []run{good}, []Extent{{LogicalOffset: 95, Length: 20}})
	cases["grouped runs overlap in a row"] = forge(2, 1, 400, []run{good, {logical: 5, length: 10, stride: 30, count: 4}}, nil)

	for name, data := range cases {
		if _, err := UnmarshalFlattened(data, 1<<20); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// The same shapes, well formed, are accepted: what the cases reject
	// is the damage, not the shape.
	for name, data := range map[string][]byte{
		"run":                     forge(2, 1, 200, []run{good}, nil),
		"run with singles in gap": forge(2, 1, 400, []run{good}, []Extent{{LogicalOffset: 15, Length: 10}, {LogicalOffset: 100, Length: 5}}),
		"interleaved runs":        forge(2, 1, 400, []run{good, {logical: 10, length: 10, physical: 50, stride: 30, count: 4}}, nil),
		"runs spanning each other": forge(2, 1, 400, []run{good, {logical: 10, length: 10, stride: 30, count: 2},
			{logical: 70, length: 10, physical: 100, stride: 30, count: 2}}, nil),
	} {
		if _, err := UnmarshalFlattened(data, 1<<20); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

// TestFlattenedBound: a record whose table would exceed the bound its
// droppings allow is refused — a run's count, the singles, or the file's
// length — before the table is allocated.
func TestFlattenedBound(t *testing.T) {
	huge := forge(2, 1, math.MaxInt64, []run{{length: 1, stride: 1, count: 1 << 40}}, nil)
	if _, err := UnmarshalFlattened(huge, 1000); err == nil {
		t.Fatal("record claiming 2^40 extents accepted under a bound of 1000")
	}
	ix := stridedIndex(2, 8, 64) // 2 runs, 16 extents
	data := MarshalFlattened(&Flattened{Index: ix})
	if _, err := UnmarshalFlattened(data, 15); err == nil {
		t.Fatal("16-extent record accepted under a bound of 15")
	}
	if _, err := UnmarshalFlattened(data, 16); err != nil {
		t.Fatalf("16-extent record rejected under a bound of 16: %v", err)
	}
	if _, err := UnmarshalFlattened(forge(1, 1, 5000, nil, sampleIndex().Extents()), 2); err == nil {
		t.Fatal("3-extent v1 record accepted under a bound of 2")
	}

	// A listed size too long for the bound is refused before the file is
	// opened: no backend op at all.
	mem := posix.NewMemFS()
	writeFile(t, mem, "/junk", make([]byte, maxFlattenedBytes(4)+1))
	plane := iostats.NewPlane()
	fs := posix.NewInstrumentFS(mem, plane, posix.WithLayerName("b"))
	if _, err := ReadFlattened(fs, "/junk", listedSize(t, mem, "/junk"), 4); err == nil || !bytes.Contains([]byte(err.Error()), []byte("longer than")) {
		t.Fatalf("oversized file: %v", err)
	}
	for op := iostats.Op(0); op < iostats.NumOps; op++ {
		if n := plane.Layer("b").OpCount(op); n != 0 {
			t.Fatalf("refusing an oversized listing made %d backend ops of kind %v", n, op)
		}
	}
	if got := FlattenedBound(10); got != 20 {
		t.Fatalf("FlattenedBound(10) = %d", got)
	}
}

// TestFlattenedFold pins how the fold spells the shapes it must find, and
// checks on random mixtures of them that a record always expands to the
// table it was written from — through the row-by-row walk or, where
// runs span each other, the general path.
func TestFlattenedFold(t *testing.T) {
	evenOdd := func(blocks, block int) *Index {
		var es []Entry
		for pass := 0; pass < 2; pass++ {
			for j := pass; j < blocks; j += 2 {
				es = append(es, Entry{LogicalOffset: int64(j * block), Length: int64(block),
					PhysicalOffset: int64(len(es) * block), Timestamp: uint64(len(es) + 1), Pid: 3})
			}
		}
		return Build(es)
	}
	split := stridedIndex(4, 50, 100)
	split.insert(Entry{LogicalOffset: 20*400 + 50, Length: 100, PhysicalOffset: 0, Timestamp: 1 << 20, Pid: 9})
	for _, c := range []struct {
		name          string
		ix            *Index
		runs, singles int
	}{
		{"n-1 strided", stridedIndex(8, 256, 4096), 8, 0},
		{"even then odd", evenOdd(512, 1024), 2, 0},
		{"sequential appends", stridedIndex(1, 64, 1<<20), 1, 0},
		{"one extent", stridedIndex(1, 1, 10), 0, 1},
		{"empty", &Index{}, 0, 0},
		// Two blocks of writers 0 and 1 lose a piece each to the overlay:
		// each such run splits in two around a single left piece (or
		// right), and the overlay itself is a single.
		{"overlaid mid-way", split, 6, 3},
	} {
		f := reparse(t, c.name, c.ix)
		if f.Runs != c.runs || f.Singles != c.singles {
			t.Errorf("%s: %d runs %d singles, want %d and %d", c.name, f.Runs, f.Singles, c.runs, c.singles)
		}
	}

	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		var es []Entry
		phys := map[uint32]int64{}
		add := func(pid uint32, off, length int64) {
			es = append(es, Entry{LogicalOffset: off, Length: length, PhysicalOffset: phys[pid],
				Timestamp: uint64(len(es) + 1), Pid: pid})
			phys[pid] += length
		}
		for shape := 0; shape < 1+rng.Intn(4); shape++ {
			base := int64(rng.Intn(1 << 16))
			block := int64(1 + rng.Intn(256))
			switch rng.Intn(4) {
			case 0: // N-1 strided
				writers := 1 + rng.Intn(6)
				for j := 0; j < 1+rng.Intn(40); j++ {
					for w := 0; w < writers; w++ {
						add(uint32(w), base+int64(j*writers+w)*block, block)
					}
				}
			case 1: // even then odd, stripes with holes
				gap := int64(rng.Intn(3)) * block
				for pass := 0; pass < 2; pass++ {
					for j := pass; j < 30; j += 2 {
						add(10, base+int64(j)*(block+gap), block)
					}
				}
			case 2: // sequential appends
				for j := 0; j < 1+rng.Intn(30); j++ {
					add(11, base+int64(j)*block, block)
				}
			default: // random overwrites
				for j := 0; j < 1+rng.Intn(30); j++ {
					add(uint32(rng.Intn(12)), int64(rng.Intn(1<<16)), int64(1+rng.Intn(512)))
				}
			}
		}
		reparse(t, fmt.Sprintf("mixture %d", iter), Build(es))
	}
}

// writeFlattenedFile creates tmp exclusively and publishes f through it.
func writeFlattenedFile(fs posix.FS, path, tmp string, f *Flattened) error {
	fd, err := fs.Open(tmp, posix.O_CREAT|posix.O_EXCL|posix.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	return WriteFlattened(fs, path, tmp, fd, f)
}

func TestRawSignatureProperties(t *testing.T) {
	a := RawSignature([]string{"hostdir.0/dropping.index.1"}, []int64{480})
	if b := RawSignature([]string{"hostdir.0/dropping.index.1"}, []int64{480}); b != a {
		t.Fatal("signature not deterministic")
	}
	if b := RawSignature([]string{"hostdir.0/dropping.index.1"}, []int64{528}); b == a {
		t.Fatal("signature misses a size change")
	}
	if b := RawSignature([]string{"hostdir.0/dropping.index.2"}, []int64{480}); b == a {
		t.Fatal("signature misses a renamed dropping")
	}
	if b := RawSignature([]string{"hostdir.0/dropping.index.1", "hostdir.1/dropping.index.2"}, []int64{480, 16}); b == a {
		t.Fatal("signature misses a new dropping")
	}
	if a == RawSignature(nil, nil) {
		t.Fatal("signature of nothing collides with signature of something")
	}
}

func TestWriteFlattenedFailureLeavesNoFinalFile(t *testing.T) {
	mem := posix.NewMemFS()
	ffs := posix.NewFaultFS(mem)
	ffs.Inject(&posix.FaultRule{Op: posix.FaultWrite, PathContains: ".tmp", Err: posix.ENOSPC})
	if err := writeFlattenedFile(ffs, "/flat", "/flat.tmp", sampleFlattened()); err == nil {
		t.Fatal("write succeeded on full device")
	}
	if _, err := mem.Stat("/flat"); err == nil {
		t.Fatal("final file exists after failed write")
	}
	if _, err := mem.Stat("/flat.tmp"); err == nil {
		t.Fatal("temp file left behind after failed write")
	}
	ffs.Clear()
	if err := writeFlattenedFile(ffs, "/flat", "/flat.tmp", sampleFlattened()); err != nil {
		t.Fatal(err)
	}
	if got := mem.OpenFDs(); got != 0 {
		t.Fatalf("%d fds leaked across flattened writes", got)
	}
}

// FuzzFlattenedParse throws arbitrary bytes at the flattened-record
// parser: it must never panic, and anything it accepts must satisfy the
// format's invariants — the expansion is a sorted, non-overlapping table
// within the recorded size; marshalling that table again re-parses to
// the same expansion (expansion identity: the fold may spell a table
// differently from the input, and a version 1 input is always rewritten
// as version 2, so the bytes need not match); and every torn prefix is
// rejected (the record is atomic; there is no "partial parse").
func FuzzFlattenedParse(f *testing.F) {
	valid := MarshalFlattened(sampleFlattened())
	f.Add(valid)
	f.Add(MarshalFlattened(&Flattened{Generation: 1, Index: &Index{}}))
	torn := valid[:len(valid)-9]
	f.Add(torn)
	corrupt := append([]byte(nil), valid...)
	corrupt[50] ^= 0x10
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add(forge(1, 3, 5000, nil, sampleIndex().Extents()))
	strided := stridedIndex(4, 8, 64)
	strided.insert(Entry{LogicalOffset: 300, Length: 40, PhysicalOffset: 7, Timestamp: 1 << 20, Pid: 9})
	f.Add(MarshalFlattened(&Flattened{Generation: 2, Index: strided}))

	f.Fuzz(func(t *testing.T, data []byte) {
		const bound = 1 << 16
		fl, err := UnmarshalFlattened(data, bound)
		if err != nil {
			return // rejected cleanly
		}
		ix := fl.Index
		var prevEnd int64
		n := 0
		for _, x := range ix.Extents() {
			if x.Length <= 0 || x.LogicalOffset < prevEnd || x.Hole {
				t.Fatalf("accepted record expands to a malformed table at %+v (previous end %d)", x, prevEnd)
			}
			prevEnd = x.LogicalOffset + x.Length
			n++
		}
		if prevEnd > ix.Size() || n != ix.NumExtents() || n != fl.Singles+runExtents(t, data, fl) {
			t.Fatalf("expansion disagrees with record: end %d size %d, %d extents counted %d", prevEnd, ix.Size(), n, ix.NumExtents())
		}
		again, err := UnmarshalFlattened(MarshalFlattened(&Flattened{Generation: fl.Generation, RawSig: fl.RawSig, Index: ix}), bound)
		if err != nil {
			t.Fatalf("re-marshalled table rejected: %v", err)
		}
		if again.Generation != fl.Generation || again.RawSig != fl.RawSig || again.Index.Size() != ix.Size() {
			t.Fatalf("re-marshalled header diverged: %+v vs %+v", again, fl)
		}
		sameExtents(t, "expansion identity", again.Index.Extents(), ix.Extents())
		// Every torn prefix of an accepted record must be rejected.
		if len(data) > 0 {
			cut := len(data) - 1 - len(data)%7
			if cut > 0 {
				if _, err := UnmarshalFlattened(data[:cut], bound); err == nil {
					t.Fatalf("torn prefix of %d/%d bytes accepted", cut, len(data))
				}
			}
		}
	})
}

// runExtents sums the counts of an accepted record's runs.
func runExtents(t *testing.T, data []byte, fl *Flattened) int {
	t.Helper()
	total := 0
	for i := 0; i < fl.Runs; i++ {
		total += int(getRun(data[FlattenedHeaderSize+i*FlattenedRunSize:]).count)
	}
	return total
}
