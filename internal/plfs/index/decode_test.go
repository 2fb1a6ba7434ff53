package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ldplfs/internal/posix"
)

// decodeEach is the per-record reference for decodeRecords: Unmarshal
// and the timestamp rule, one record after another, in place.
func decodeEach(raw []byte, lastTS *uint64) ([]Entry, error) {
	n := len(raw) / EntrySize
	if n == 0 {
		return nil, nil
	}
	ents := unsafe.Slice((*Entry)(unsafe.Pointer(&raw[0])), n)
	var last uint64
	if lastTS != nil {
		last = *lastTS
	}
	i := 0
	var err error
	for ; i < n; i++ {
		var e Entry
		if err = e.Unmarshal(raw[i*EntrySize:]); err != nil {
			break
		}
		if lastTS != nil && e.Timestamp < last {
			err = ErrUnsorted
			break
		}
		ents[i], last = e, e.Timestamp
	}
	if lastTS != nil {
		*lastTS = last
	}
	return ents[:i], err
}

// alignedBytes returns n zero bytes on 8-byte-aligned memory, as the
// in-place decoders need.
func alignedBytes(n int) []byte {
	w := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), n)
}

// fnvRecord is a raw record's checksum computed apart from the package's
// kernels, by the standard library's FNV-1a over the bytes the checksum
// covers: 0–31 as stored, then the dropping's four, then the pid's.
func fnvRecord(r []byte) uint64 {
	h := fnv.New64a()
	h.Write(r[:32])
	h.Write(r[36:40])
	h.Write(r[32:36])
	return h.Sum64()
}

// recordBytes marshals es into a fresh aligned chunk.
func recordBytes(es []Entry) []byte {
	raw := alignedBytes(len(es) * EntrySize)
	for i, e := range es {
		e.Marshal(raw[i*EntrySize:])
	}
	return raw
}

// sameDecode runs decodeRecords and decodeEach over two copies of raw,
// from the same timestamp floor (none if floor is nil), and fails unless
// they keep the same records, stop with the same error text and leave
// the same floor.
func sameDecode(t *testing.T, name string, raw []byte, floor *uint64) ([]Entry, error) {
	t.Helper()
	mine, ref := alignedBytes(len(raw)), alignedBytes(len(raw))
	copy(mine, raw)
	copy(ref, raw)
	var gotTS, wantTS *uint64
	if floor != nil {
		a, b := *floor, *floor
		gotTS, wantTS = &a, &b
	}
	got, gotErr := decodeRecords(mine, gotTS)
	want, wantErr := decodeEach(ref, wantTS)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: decodeRecords kept %d records %v, Unmarshal %d %v", name, len(got), got, len(want), want)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: decodeRecords stopped with %v, Unmarshal with %v", name, gotErr, wantErr)
	}
	if floor != nil && *gotTS != *wantTS {
		t.Fatalf("%s: decodeRecords left the floor at %d, Unmarshal at %d", name, *gotTS, *wantTS)
	}
	return got, gotErr
}

// FuzzDecodeRecords: over arbitrary chunk bytes — each record's checksum
// left as it came or sealed with the standard library's FNV-1a, as bit
// i%64 of sealed says — the batch decoder keeps exactly the records that
// Unmarshal and the timestamp rule keep, one record after another, and
// stops with the same error text, with and without a timestamp floor;
// and Entry.checksum is the standard library's FNV-1a over every
// record's fields.
func FuzzDecodeRecords(f *testing.F) {
	valid := recordBytes(listedEntries(9))
	f.Add(valid, uint64(0), uint64(0), true)
	f.Add(valid, ^uint64(0), uint64(0), true)
	f.Add(valid, ^uint64(0), uint64(5), true)
	f.Add(valid, ^uint64(0)&^(1<<6), uint64(0), false)
	f.Add(valid[:5*EntrySize+7], ^uint64(0), uint64(0), true)
	f.Add([]byte{}, uint64(0), uint64(0), true)

	f.Fuzz(func(t *testing.T, data []byte, sealed, floor uint64, ordered bool) {
		raw := alignedBytes(len(data) / EntrySize * EntrySize)
		copy(raw, data)
		for i := 0; i < len(raw)/EntrySize; i++ {
			r := raw[i*EntrySize:]
			if sealed>>(i%64)&1 == 1 {
				binary.LittleEndian.PutUint64(r[40:], fnvRecord(r))
			}
			var e Entry
			e.Unmarshal(r)
			if e.checksum() != fnvRecord(r) {
				t.Fatalf("record %d: checksum %#x, FNV-1a %#x", i, e.checksum(), fnvRecord(r))
			}
		}
		var fl *uint64
		if ordered {
			fl = &floor
		}
		sameDecode(t, "fuzz", raw, fl)
	})
}

// TestDecodeRecordsEveryPosition puts a record failing its checksum and,
// separately, a record going back in time at every position of chunks
// of 1 to 9 records — a record at each offset of the first and second
// group of four, and every tail length — and checks the decoder against
// the per-record path, and ReadDropping and a stream over the same
// dropping against the error text they have always given.
func TestDecodeRecordsEveryPosition(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for pos := 0; pos < n; pos++ {
			for _, kind := range []string{"corrupt", "unsorted"} {
				name := fmt.Sprintf("%d records, %s record %d", n, kind, pos)
				es := listedEntries(n)
				var floor uint64
				if kind == "unsorted" {
					if pos == 0 {
						floor = es[0].Timestamp + 1
					} else {
						es[pos].Timestamp = es[pos-1].Timestamp - 1
					}
				}
				raw := recordBytes(es)
				if kind == "corrupt" {
					raw[pos*EntrySize+40] ^= 1
				}
				got, err := sameDecode(t, name, raw, &floor)
				if !slices.Equal(got, es[:pos]) {
					t.Fatalf("%s: kept %d records, want the %d before it", name, len(got), pos)
				}
				if kind == "unsorted" && err != ErrUnsorted {
					t.Fatalf("%s: stopped with %v, want ErrUnsorted", name, err)
				}
				if kind == "corrupt" && (err == nil || !strings.Contains(err.Error(), "checksum mismatch")) {
					t.Fatalf("%s: stopped with %v, want a checksum mismatch", name, err)
				}
				all, _ := sameDecode(t, name+", any order", raw, nil)
				if kind == "unsorted" && !slices.Equal(all, es) {
					t.Fatalf("%s: in any order, kept %d records, want all %d", name, len(all), n)
				}

				mem := posix.NewMemFS()
				path := "/dropping.index.1"
				writeFile(t, mem, path, append(droppingBytes(t, nil), raw...))
				var wantErr error
				if kind == "corrupt" {
					wantErr = fmt.Errorf("index: dropping %s record %d: %w", path, pos, err)
				}
				read, readErr := ReadDropping(mem, path)
				if fmt.Sprint(readErr) != fmt.Sprint(wantErr) || (wantErr == nil && !slices.Equal(read, es)) {
					t.Fatalf("%s: ReadDropping = %d records, %v; want %v", name, len(read), readErr, wantErr)
				}
				if pos == 0 && kind == "unsorted" {
					continue // a stream starts from no floor
				}
				if kind == "unsorted" {
					wantErr = fmt.Errorf("%w: %s", ErrUnsorted, path)
				}
				s, err := OpenDroppingStream(mem, path, listedSize(t, mem, path), 0)
				if err != nil {
					t.Fatal(err)
				}
				streamed, streamErr := drain(s)
				s.Close()
				if !slices.Equal(streamed, es[:pos]) || fmt.Sprint(streamErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: stream = %d records, %v; want %d, %v", name, len(streamed), streamErr, pos, wantErr)
				}
				if kind == "unsorted" && !errors.Is(streamErr, ErrUnsorted) {
					t.Fatalf("%s: stream error %v is not ErrUnsorted", name, streamErr)
				}
			}
		}
	}
}

// TestDecodeRecordsGolden decodes every index dropping of the checked-in
// containers through the batch decoder and the per-record path: their
// checksums, written by earlier releases, all pass, and both paths keep
// the same records.
func TestDecodeRecordsGolden(t *testing.T) {
	records := 0
	err := filepath.WalkDir("../testdata/golden", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), "dropping.index.") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		body := data[headerSize:]
		raw := alignedBytes(len(body) / EntrySize * EntrySize)
		copy(raw, body)
		for i := 0; i < len(raw); i += EntrySize {
			if got, want := binary.LittleEndian.Uint64(raw[i+40:]), fnvRecord(raw[i:]); got != want {
				t.Fatalf("%s record %d: stored checksum %#x, FNV-1a %#x", path, i/EntrySize, got, want)
			}
		}
		var floor uint64
		got, err := sameDecode(t, path, raw, &floor)
		if err != nil || len(got) != len(raw)/EntrySize {
			t.Fatalf("%s: decoded %d of %d records, %v", path, len(got), len(raw)/EntrySize, err)
		}
		records += len(got)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if records == 0 {
		t.Fatal("no index records found in the golden containers")
	}
}

// BenchmarkDecodeRecords checks and decodes one default-sized chunk of
// records, in place, per op: the batch decoder against the per-record
// path it replaces. Each op first copies the raw chunk back over the
// decoded one (a memmove of DefaultStreamChunk × EntrySize bytes), which
// ns/record includes.
func BenchmarkDecodeRecords(b *testing.B) {
	const n = DefaultStreamChunk
	src := recordBytes(listedEntries(n))
	for _, c := range []struct {
		name   string
		decode func([]byte, *uint64) ([]Entry, error)
	}{
		{"batch", decodeRecords},
		{"per-record", decodeEach},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := alignedBytes(len(src))
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			var last uint64
			for b.Loop() {
				copy(buf, src)
				last = 0
				if ents, err := c.decode(buf, &last); err != nil || len(ents) != n {
					b.Fatalf("%d records, %v", len(ents), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}
