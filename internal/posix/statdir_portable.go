//go:build !(linux && amd64)

package posix

import (
	"errors"
	"os"
)

// ReaddirStat implements StatDirFS as one directory read plus one
// stat(2) per entry, on platforms without the fstatat path wired up.
func (o *OSFS) ReaddirStat(path string) ([]DirEntryStat, error) {
	dir := o.host(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, mapOSError(err)
	}
	out := make([]DirEntryStat, 0, len(ents))
	for _, e := range ents {
		info, err := os.Stat(dir + string(os.PathSeparator) + e.Name())
		if errors.Is(err, os.ErrNotExist) {
			continue // gone since the listing
		}
		if err != nil {
			return nil, mapOSError(err)
		}
		out = append(out, DirEntryStat{Name: e.Name(), Stat: statFromInfo(info)})
	}
	return out, nil // os.ReadDir lists in name order
}
