package posix

import (
	"slices"
	"strings"
	"testing"
)

// TestLayoutContract pins the layout contract every implementation must
// satisfy: deterministic placement, distinct in-range replica indices,
// a primary identical to the classic mod-N owner, and stable placement
// for every path inside one hostdir.
func TestLayoutContract(t *testing.T) {
	layouts := []struct {
		desc string
	}{
		{"mod-n"},
		{"replica-1"},
		{"replica-2"},
		{"replica-3"},
	}
	paths := []string{
		"/c/.plfsaccess",
		"/c/version",
		"/c/meta/size.7",
		"/c/openhosts/host.3",
		"/c/hostdir.0/dropping.data.1",
		"/c/hostdir.1/dropping.data.1",
		"/c/hostdir.2/dropping.index.9",
		"/c/hostdir.5/dropping.data.2",
		"/c/hostdir.31/dropping.data.4",
		"/c/hostdir.weird/dropping.data.1", // non-numeric suffix: FNV fallback
		"/plain/file.txt",
	}
	for _, tc := range layouts {
		for _, n := range []int{3, 4, 7} {
			l, err := LayoutFor(tc.desc, n)
			if err != nil {
				t.Fatalf("LayoutFor(%q, %d): %v", tc.desc, n, err)
			}
			if got := l.Descriptor(); got != tc.desc {
				t.Errorf("%s: Descriptor() = %q", tc.desc, got)
			}
			if w := l.Width(); w < 1 || w > n {
				t.Errorf("%s/n=%d: Width() = %d out of range", tc.desc, n, w)
			}
			for _, p := range paths {
				reps := l.Replicas(p, n)
				if len(reps) < 1 || len(reps) > l.Width() {
					t.Fatalf("%s/n=%d %s: %d replicas, width %d", tc.desc, n, p, len(reps), l.Width())
				}
				seen := map[int]bool{}
				for _, r := range reps {
					if r < 0 || r >= n {
						t.Fatalf("%s/n=%d %s: replica %d out of range", tc.desc, n, p, r)
					}
					if seen[r] {
						t.Fatalf("%s/n=%d %s: duplicate replica %d in %v", tc.desc, n, p, r, reps)
					}
					seen[r] = true
				}
				// Primary compatibility: every layout agrees with mod-N on
				// where the authoritative copy lives.
				if want := primaryIndex(p, n); reps[0] != want {
					t.Fatalf("%s/n=%d %s: primary %d, mod-N owner %d", tc.desc, n, p, reps[0], want)
				}
				// Determinism: same inputs, same placement.
				again := l.Replicas(p, n)
				for i := range reps {
					if again[i] != reps[i] {
						t.Fatalf("%s/n=%d %s: nondeterministic placement %v vs %v", tc.desc, n, p, reps, again)
					}
				}
			}
			// Colocation: every path below one hostdir shares its set.
			a := l.Replicas("/c/hostdir.5/dropping.data.1", n)
			b := l.Replicas("/c/hostdir.5/dropping.index.2", n)
			if !slices.Equal(a, b) {
				t.Fatalf("%s/n=%d: hostdir.5 placement differs per file: %v vs %v", tc.desc, n, a, b)
			}
		}
	}
}

// TestLayoutRebalanceStability pins that growing the replica factor
// never moves existing copies: replica-2's set is a strict prefix of
// replica-3's, so widening a layout only adds copies — re-replication,
// never migration.
func TestLayoutRebalanceStability(t *testing.T) {
	const n = 5
	paths := []string{"/c/hostdir.0/d", "/c/hostdir.3/d", "/c/hostdir.7/d", "/c/meta/size.1"}
	for r := 1; r < n; r++ {
		narrow := ReplicaLayout{R: r}
		wide := ReplicaLayout{R: r + 1}
		for _, p := range paths {
			a, b := narrow.Replicas(p, n), wide.Replicas(p, n)
			if len(b) != len(a)+1 {
				t.Fatalf("replica-%d -> replica-%d on %s: widths %d -> %d", r, r+1, p, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("replica-%d set %v is not a prefix of replica-%d set %v for %s", r, a, r+1, b, p)
				}
			}
		}
	}
}

// TestLayoutParseRejections pins the configuration errors: unknown
// descriptors, malformed arguments, and R > N.
func TestLayoutParseRejections(t *testing.T) {
	cases := []struct {
		desc string
		n    int
		want string // substring of the error, "" = must succeed
	}{
		{"", 3, ""},
		{"mod-n", 1, ""},
		{"replica-2", 2, ""},
		{"replica-3", 3, ""},
		{"replica-4", 3, "needs 4 backends, have 3"},
		{"replica-0", 3, "positive replica count"},
		{"replica--1", 3, "unknown layout"}, // splits at the last dash: "replica-" is not a layout name
		{"replica-x", 3, "positive replica count"},
		{"replica-", 3, "positive replica count"},
		{"mod-n-2", 3, "takes no argument"},
		{"bogus", 3, "unknown layout"},
		{"bogus-7", 3, "unknown layout"},
	}
	for _, tc := range cases {
		l, err := LayoutFor(tc.desc, tc.n)
		if tc.want == "" {
			if err != nil {
				t.Errorf("LayoutFor(%q, %d): unexpected error %v", tc.desc, tc.n, err)
			} else if l == nil {
				t.Errorf("LayoutFor(%q, %d): nil layout", tc.desc, tc.n)
			}
			continue
		}
		if err == nil {
			t.Errorf("LayoutFor(%q, %d): expected error containing %q, got layout %v", tc.desc, tc.n, tc.want, l.Descriptor())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("LayoutFor(%q, %d): error %q does not contain %q", tc.desc, tc.n, err, tc.want)
		}
	}
}

// TestLayoutDescriptorRoundTrip pins the framed record: canonical
// descriptors survive a marshal/unmarshal round trip and corruption in
// any byte is detected.
func TestLayoutDescriptorRoundTrip(t *testing.T) {
	for _, desc := range []string{"mod-n", "replica-2", "replica-16", ""} {
		rec := MarshalLayoutDescriptor(desc)
		got, err := UnmarshalLayoutDescriptor(rec)
		if err != nil {
			t.Fatalf("round trip %q: %v", desc, err)
		}
		if got != desc {
			t.Fatalf("round trip %q: got %q", desc, got)
		}
		// Flip each byte in turn: every corruption must be rejected.
		for i := range rec {
			bad := make([]byte, len(rec))
			copy(bad, rec)
			bad[i] ^= 0xff
			if _, err := UnmarshalLayoutDescriptor(bad); err == nil {
				t.Fatalf("corruption at byte %d of %q record went undetected", i, desc)
			}
		}
		// Truncation and trailing garbage must be rejected too.
		if _, err := UnmarshalLayoutDescriptor(rec[:len(rec)-1]); err == nil && desc != "" {
			t.Fatalf("truncated %q record went undetected", desc)
		}
		if _, err := UnmarshalLayoutDescriptor(append(append([]byte{}, rec...), 0)); err == nil {
			t.Fatalf("trailing garbage on %q record went undetected", desc)
		}
	}
}

// FuzzLayoutDescriptorParse fuzzes the descriptor record parser: it
// must never panic, and any record it accepts must re-marshal to the
// identical bytes (the record is canonical).
func FuzzLayoutDescriptorParse(f *testing.F) {
	f.Add(MarshalLayoutDescriptor("mod-n"))
	f.Add(MarshalLayoutDescriptor("replica-2"))
	f.Add(MarshalLayoutDescriptor(""))
	f.Add([]byte{})
	f.Add([]byte("PLFSLYT1garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		desc, err := UnmarshalLayoutDescriptor(data)
		if err != nil {
			return
		}
		rec := MarshalLayoutDescriptor(desc)
		if string(rec) != string(data) {
			t.Fatalf("accepted record is not canonical: %x != %x", data, rec)
		}
	})
}
