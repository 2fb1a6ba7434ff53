package posix

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// Layout decides which backends hold each path of a striped container.
// Implementations must be pure functions of (path, nbackends): every
// instance over the same backend list must agree on placement without
// coordination, exactly as the mod-N rule always has.
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
type Layout interface {
	// Descriptor returns the canonical descriptor string, e.g. "mod-n"
	// or "replica-2" — the form persisted in the container.
	Descriptor() string
	// Width returns the maximum number of replicas per path (1 for
	// mod-N).
	Width() int
	// Replicas returns the ordered backend indices holding path, given
	// n composed backends. The primary copy is first.
	Replicas(path string, n int) []int
}

// primaryIndex is the classic placement rule shared by every layout:
// hostdir.K maps to K mod n (FNV-1a of the component for non-numeric
// suffixes) and everything else to backend 0.
func primaryIndex(path string, n int) int {
	comp := hostdirComponent(path)
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

// ModNLayout is the single-copy placement: each path lives on exactly
// its primary backend. It is the default layout, the width-1 case of
// StripedFS's replica loop.
type ModNLayout struct{}

// Descriptor implements Layout.
func (ModNLayout) Descriptor() string { return "mod-n" }

// Width implements Layout.
func (ModNLayout) Width() int { return 1 }

// Replicas implements Layout.
func (ModNLayout) Replicas(path string, n int) []int {
	return []int{primaryIndex(path, n)}
}

// ReplicaLayout places R copies of each path on consecutive backends
// starting at the primary: hostdir.K lands on K mod n, (K+1) mod n, ...
// Canonical paths (container metadata) land on backends 0..R-1, so the
// markers and flattened records survive the canonical backend dying.
type ReplicaLayout struct{ R int }

// Descriptor implements Layout.
func (l ReplicaLayout) Descriptor() string { return fmt.Sprintf("replica-%d", l.R) }

// Width implements Layout.
func (l ReplicaLayout) Width() int { return l.R }

// Replicas implements Layout.
func (l ReplicaLayout) Replicas(path string, n int) []int {
	r := l.R
	if r > n {
		r = n
	}
	out := make([]int, r)
	p := primaryIndex(path, n)
	for i := range out {
		out[i] = (p + i) % n
	}
	return out
}

// ParseLayout resolves a descriptor string, "NAME" or "NAME-ARG", to one
// of the two layouts. The empty descriptor means the default mod-N
// layout. The argument is what follows the last dash, unless the whole
// string is itself a name ("mod-n" contains one).
func ParseLayout(desc string) (Layout, error) {
	if desc == "" {
		return ModNLayout{}, nil
	}
	name, arg := desc, ""
	if i := strings.LastIndex(desc, "-"); i > 0 && desc != "mod-n" {
		name, arg = desc[:i], desc[i+1:]
	}
	switch name {
	case "mod-n":
		if arg != "" {
			return nil, fmt.Errorf("layout mod-n takes no argument, got %q", arg)
		}
		return ModNLayout{}, nil
	case "replica":
		r, err := strconv.Atoi(arg)
		if err != nil || r < 1 {
			return nil, fmt.Errorf("layout replica-R needs a positive replica count, got %q", arg)
		}
		return ReplicaLayout{R: r}, nil
	}
	return nil, fmt.Errorf("unknown layout %q (known: mod-n, replica-R)", desc)
}

// LayoutFor parses desc and validates it against a backend count: a
// layout needing more replicas than there are backends is a
// configuration error, not a silent clamp.
func LayoutFor(desc string, nbackends int) (Layout, error) {
	l, err := ParseLayout(desc)
	if err != nil {
		return nil, err
	}
	if nbackends > 0 && l.Width() > nbackends {
		return nil, fmt.Errorf("layout %s needs %d backends, have %d", l.Descriptor(), l.Width(), nbackends)
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
