package plfs

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	idx "ldplfs/internal/plfs/index"
	"ldplfs/internal/posix"
)

// TestListedMergeGolden merges each checked-in container's index
// droppings from the sizes its walk listed — the merge behind a cold
// open and a flatten — and checks the index against ReadDropping and
// Build over the same droppings: containers v1 to v4, the v3 one
// through its replica-2 layout.
func TestListedMergeGolden(t *testing.T) {
	work := t.TempDir()
	if err := os.CopyFS(work, os.DirFS(goldenDir)); err != nil {
		t.Fatal(err)
	}
	osfs, err := posix.NewOSFS(work)
	if err != nil {
		t.Fatal(err)
	}
	v3 := make([]posix.FS, 3)
	for i := range v3 {
		if v3[i], err = posix.NewOSFS(filepath.Join(work, goldenContainerV3, fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		p    *FS
	}{
		{goldenContainer, newHostdirs(osfs, goldenHostdirs)},
		{goldenContainerV2, newHostdirs(osfs, goldenHostdirs)},
		{goldenContainerV3, goldenV3Rig(t, v3...)},
		{goldenContainerV4, newHostdirs(osfs, goldenHostdirs)},
	} {
		path := "/" + c.name
		st, err := c.p.listIndexState(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.droppings) == 0 {
			t.Fatalf("%s: no index droppings listed", c.name)
		}
		for _, chunk := range []int{1, 2, idx.DefaultStreamChunk} {
			c.p.streamChunk = chunk
			got, _, err := c.p.merge(st)
			if err != nil {
				t.Fatalf("%s, chunk %d: %v", c.name, chunk, err)
			}
			entries, err := c.p.loadDroppings(st.droppings, st.stats)
			if err != nil {
				t.Fatal(err)
			}
			want := idx.Build(entries)
			if got.Size() != want.Size() || !slices.Equal(got.Extents(), want.Extents()) {
				t.Fatalf("%s, chunk %d: listed merge differs from ReadDropping and Build", c.name, chunk)
			}
		}
	}
}
