package posix

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// Layout decides which backends hold each path of a striped container:
// R copies on consecutive backends starting at the classic mod-N owner,
// so hostdir.K lands on K mod n, (K+1) mod n, ... and canonical paths
// (container metadata) on backends 0..R-1, where the markers and
// flattened records survive the canonical backend dying. R = 1 is mod-N,
// the default and the zero value. Placement is a pure function of
// (path, nbackends): every instance over the same backend list agrees
// on it without coordination.
//
// The contract (pinned by the table-driven tests in layout_test.go):
//
//   - Replicas returns 1..Width() distinct backend indices in [0, n),
//     primary first.
//   - The primary (Replicas[0]) equals the classic mod-N owner, so a
//     container written under mod-N reads correctly under a replicated
//     layout and vice versa — migration never moves the primary copy.
//   - Placement is deterministic and stable: the same path always maps
//     to the same replica set, and paths inside one hostdir share it.
type Layout struct {
	r int // copies per path; 0 and 1 both mean mod-N
}

// Descriptor returns the canonical descriptor string, "mod-n" or
// "replica-R" — the form persisted in the container.
func (l Layout) Descriptor() string {
	if l.Width() == 1 {
		return "mod-n"
	}
	return fmt.Sprintf("replica-%d", l.r)
}

// Width returns the number of copies per path (1 for mod-N).
func (l Layout) Width() int { return max(l.r, 1) }

// Replicas returns the ordered backend indices holding path, given n
// composed backends. The primary copy is first.
func (l Layout) Replicas(path string, n int) []int {
	out := make([]int, min(l.Width(), n))
	p := primaryIndex(path, n)
	for i := range out {
		out[i] = (p + i) % n
	}
	return out
}

// primaryIndex is the classic placement rule shared by every layout:
// hostdir.K maps to K mod n (FNV-1a of the component for non-numeric
// suffixes) and everything else to backend 0.
func primaryIndex(path string, n int) int {
	return hostdirPrimary(hostdirComponent(path), n)
}

// hostdirPrimary is primaryIndex of a path whose first hostdir
// component is comp ("" for a canonical path).
func hostdirPrimary(comp string, n int) int {
	if comp == "" {
		return 0
	}
	if k, err := strconv.Atoi(comp[len("hostdir."):]); err == nil && k >= 0 {
		return k % n
	}
	// Non-numeric hostdir suffix: fall back to FNV-1a of the component.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(comp); i++ {
		h ^= uint64(comp[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// ParseLayout resolves a descriptor string, "NAME" or "NAME-ARG", to a
// layout. The empty descriptor means the default mod-N layout, as does
// "replica-1". The argument is what follows the last dash, unless the
// whole string is itself a name ("mod-n" contains one).
func ParseLayout(desc string) (Layout, error) {
	if desc == "" {
		return Layout{}, nil
	}
	name, arg := desc, ""
	if i := strings.LastIndex(desc, "-"); i > 0 && desc != "mod-n" {
		name, arg = desc[:i], desc[i+1:]
	}
	switch name {
	case "mod-n":
		if arg != "" {
			return Layout{}, fmt.Errorf("layout mod-n takes no argument, got %q", arg)
		}
		return Layout{}, nil
	case "replica":
		r, err := strconv.Atoi(arg)
		if err != nil || r < 1 {
			return Layout{}, fmt.Errorf("layout replica-R needs a positive replica count, got %q", arg)
		}
		return Layout{r: r}, nil
	}
	return Layout{}, fmt.Errorf("unknown layout %q (known: mod-n, replica-R)", desc)
}

// LayoutFor parses desc and validates it against a backend count: a
// layout needing more replicas than there are backends is a
// configuration error, not a silent clamp.
func LayoutFor(desc string, nbackends int) (Layout, error) {
	l, err := ParseLayout(desc)
	if err != nil {
		return Layout{}, err
	}
	if nbackends > 0 && l.Width() > nbackends {
		return Layout{}, fmt.Errorf("layout %s needs %d backends, have %d", l.Descriptor(), l.Width(), nbackends)
	}
	return l, nil
}

// Layout-descriptor record framing. The descriptor is part of a
// container's identity, so it is persisted versioned and checksummed:
//
//	magic   u64  "PLFSLYT1"
//	version u32  (currently 1)
//	crc32   u32  IEEE, over the length and descriptor bytes
//	length  u16
//	desc    [length]byte
const (
	// LayoutMagic identifies a layout-descriptor record ("PLFSLYT1").
	LayoutMagic uint64 = 0x504c46534c595431
	// LayoutVersion is the current record version.
	LayoutVersion uint32 = 1
	// layoutHeaderSize is the fixed prefix before the descriptor bytes.
	layoutHeaderSize = 8 + 4 + 4 + 2
)

// MarshalLayoutDescriptor frames desc for persistence in a container.
func MarshalLayoutDescriptor(desc string) []byte {
	if len(desc) > 0xffff {
		desc = desc[:0xffff]
	}
	b := make([]byte, layoutHeaderSize+len(desc))
	binary.LittleEndian.PutUint64(b[0:], LayoutMagic)
	binary.LittleEndian.PutUint32(b[8:], LayoutVersion)
	binary.LittleEndian.PutUint16(b[16:], uint16(len(desc)))
	copy(b[layoutHeaderSize:], desc)
	binary.LittleEndian.PutUint32(b[12:], crc32.ChecksumIEEE(b[16:]))
	return b
}

// UnmarshalLayoutDescriptor validates a framed record and returns the
// descriptor string. It never panics on hostile input (fuzzed by
// FuzzLayoutDescriptorParse) and rejects bad magic, unknown versions,
// truncation, trailing garbage and checksum mismatches.
func UnmarshalLayoutDescriptor(b []byte) (string, error) {
	if len(b) < layoutHeaderSize {
		return "", fmt.Errorf("layout record truncated: %d bytes", len(b))
	}
	if m := binary.LittleEndian.Uint64(b[0:]); m != LayoutMagic {
		return "", fmt.Errorf("bad layout magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != LayoutVersion {
		return "", fmt.Errorf("unsupported layout version %d", v)
	}
	n := int(binary.LittleEndian.Uint16(b[16:]))
	if len(b) != layoutHeaderSize+n {
		return "", fmt.Errorf("layout record length mismatch: header says %d, have %d", n, len(b)-layoutHeaderSize)
	}
	if got, want := crc32.ChecksumIEEE(b[16:]), binary.LittleEndian.Uint32(b[12:]); got != want {
		return "", fmt.Errorf("layout record checksum mismatch: %#x != %#x", got, want)
	}
	return string(b[layoutHeaderSize:]), nil
}
