package index

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// FNV-1a's 64-bit parameters, the record checksum's hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// decodeGroup is how many records decodeRecords checks per pass: four
// independent FNV-1a chains, so the CPU overlaps four serial multiply
// chains instead of waiting out one. It is a property of the kernel,
// not a knob: sum4 and decode4 are written out for exactly four.
const decodeGroup = 4

// mix4 folds the four bytes of v into h, low byte first: FNV-1a over
// a little-endian word, unrolled.
func mix4(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>16&0xff)) * fnvPrime64
	return (h ^ uint64(v>>24)) * fnvPrime64
}

// mix8 folds the eight bytes of v into h, low byte first.
func mix8(h, v uint64) uint64 {
	return mix4(mix4(h, uint32(v)), uint32(v>>32))
}

// sum4 returns the checksums of the decodeGroup raw records in g, hashed
// side by side as independent FNV-1a chains over the bytes, and in the
// order, that Entry.checksum mixes: bytes 0–31 as stored, then the
// dropping's four bytes and the pid's (pid<<32 | dropping, low byte
// first). step is inlined: the loops run with the four chains in
// registers.
func sum4(g *[decodeGroup * EntrySize]byte) (h0, h1, h2, h3 uint64) {
	h0, h1, h2, h3 = fnvOffset64, fnvOffset64, fnvOffset64, fnvOffset64
	step := func(b int) {
		h0 = (h0 ^ uint64(g[b])) * fnvPrime64
		h1 = (h1 ^ uint64(g[EntrySize+b])) * fnvPrime64
		h2 = (h2 ^ uint64(g[2*EntrySize+b])) * fnvPrime64
		h3 = (h3 ^ uint64(g[3*EntrySize+b])) * fnvPrime64
	}
	for b := 0; b < 32; b++ {
		step(b)
	}
	for b := 36; b < 40; b++ {
		step(b)
	}
	for b := 32; b < 36; b++ {
		step(b)
	}
	return h0, h1, h2, h3
}

// decode4 checks the decodeGroup raw records in g and, if every one
// passes its checksum and (ordered) none goes below last or its
// predecessor's timestamp, decodes them into out, which may lie over g
// as decodeRecords lays it. Otherwise it decodes nothing and returns
// false.
func decode4(g *[decodeGroup * EntrySize]byte, out *[decodeGroup]Entry, last uint64, ordered bool) bool {
	h0, h1, h2, h3 := sum4(g)
	le := binary.LittleEndian
	if h0 != le.Uint64(g[40:]) || h1 != le.Uint64(g[EntrySize+40:]) ||
		h2 != le.Uint64(g[2*EntrySize+40:]) || h3 != le.Uint64(g[3*EntrySize+40:]) {
		return false
	}
	if ordered {
		t0, t1 := le.Uint64(g[24:]), le.Uint64(g[EntrySize+24:])
		t2, t3 := le.Uint64(g[2*EntrySize+24:]), le.Uint64(g[3*EntrySize+24:])
		if t0 < last || t1 < t0 || t2 < t1 || t3 < t2 {
			return false
		}
	}
	// In order, field by field: out[k] ends before raw record k+1
	// starts, and each field lands at or below the offset it is read
	// from, so no store clobbers a byte still to be read. (Building each
	// Entry whole first would go through the stack, and reloading it
	// there in 16-byte pieces stalls on store forwarding.)
	for k := range decodeGroup {
		r, e := (*[EntrySize]byte)(g[k*EntrySize:]), &out[k]
		e.LogicalOffset = int64(le.Uint64(r[0:]))
		e.Length = int64(le.Uint64(r[8:]))
		e.PhysicalOffset = int64(le.Uint64(r[16:]))
		e.Timestamp = le.Uint64(r[24:])
		e.Pid = le.Uint32(r[32:])
		e.Dropping = le.Uint32(r[36:])
	}
	return true
}

// decodeRecords decodes records over their own raw bytes, which needs
// an Entry no larger in memory than on disk; this fails to compile
// otherwise.
var _ [EntrySize - unsafe.Sizeof(Entry{})]byte

// decodeRecords checks the whole raw records in raw and decodes them in
// place, over raw's own memory: Entry i (40 bytes at 40i) ends before
// raw record i+1 (EntrySize bytes at EntrySize*(i+1)), so storing it
// overwrites only bytes already decoded. raw's memory must be 8-byte
// aligned, as Entry needs.
//
// Records are checked decodeGroup at a time: their checksums are hashed
// side by side straight from the raw bytes, and a group whose checksums
// and timestamps all pass is decoded as it stands. A group with a
// failure, and a tail shorter than a group, go through Unmarshal one
// record at a time, so what is kept and the error returned are the
// per-record path's exactly.
//
// With lastTS non-nil, a record's timestamp must not be below *lastTS or
// its predecessor's; *lastTS ends at the newest timestamp kept. Decoding
// stops at the first record that fails its checksum (Unmarshal's error)
// or goes back in time (ErrUnsorted, bare): the records before it are
// returned, with that error.
func decodeRecords(raw []byte, lastTS *uint64) ([]Entry, error) {
	n := len(raw) / EntrySize
	if n == 0 {
		return nil, nil
	}
	ents := unsafe.Slice((*Entry)(unsafe.Pointer(&raw[0])), n)
	var last uint64
	if lastTS != nil {
		last = *lastTS
	}
	ordered := lastTS != nil
	i := 0
	for ; i+decodeGroup <= n; i += decodeGroup {
		g := (*[decodeGroup * EntrySize]byte)(raw[i*EntrySize:])
		if !decode4(g, (*[decodeGroup]Entry)(ents[i:]), last, ordered) {
			break
		}
		last = ents[i+decodeGroup-1].Timestamp
	}
	var err error
	for ; i < n; i++ {
		var e Entry
		if err = e.Unmarshal(raw[i*EntrySize:]); err != nil {
			break
		}
		if ordered && e.Timestamp < last {
			err = ErrUnsorted
			break
		}
		ents[i], last = e, e.Timestamp
	}
	if ordered {
		*lastTS = last
	}
	return ents[:i], err
}

// recordError names a record decodeRecords stopped at, as the readers of
// a dropping report it: a checksum failure by the dropping and the
// record's ordinal in it, ErrUnsorted by the dropping.
func recordError(path string, rec int64, err error) error {
	if err == ErrUnsorted {
		return fmt.Errorf("%w: %s", ErrUnsorted, path)
	}
	return fmt.Errorf("index: dropping %s record %d: %w", path, rec, err)
}
