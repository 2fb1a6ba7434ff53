package posix

import (
	"errors"
	"strings"
)

// DirEntryStat is one directory entry with the attributes Stat would
// report for it.
type DirEntryStat struct {
	Name string
	Stat
}

// StatDirFS is the optional listing-with-attributes capability, the
// readdirplus shape: one operation returns a directory's entries in
// name order, each with its size, mtime and mode. Backends that can
// answer in one step (MemFS under one lock, StripedFS by one concurrent
// listing per backend, the composing wrappers by delegation) implement
// it; the package helper ReaddirStat probes for it and falls back to
// Readdir plus one Stat per entry, so callers list unconditionally and
// the capability only changes the operation count, never the answer.
//
// Semantics: the entries are exactly Readdir's, and each entry's Stat
// is what Stat(path + "/" + name) returns. An entry that vanishes
// between the listing and its attributes is left out, as a listing
// taken a moment later would have it. OSFS answers with one directory
// read plus one fstatat(2) per entry: an operation fewer at this
// layer, but the kernel sees as many system calls as Readdir plus
// Stat would make.
type StatDirFS interface {
	ReaddirStat(path string) ([]DirEntryStat, error)
}

// ReaddirStat lists path with attributes, in one operation when the
// backend has the capability and as Readdir plus one Stat per entry
// otherwise.
func ReaddirStat(fs FS, path string) ([]DirEntryStat, error) {
	if l, ok := fs.(StatDirFS); ok {
		return l.ReaddirStat(path)
	}
	return readdirStatFallback(fs, path)
}

// readdirStatFallback is the decomposition of ReaddirStat: the listing,
// then one Stat per entry.
func readdirStatFallback(fs FS, path string) ([]DirEntryStat, error) {
	ents, err := fs.Readdir(path)
	if err != nil {
		return nil, err
	}
	dir := strings.TrimSuffix(path, "/") + "/"
	out := make([]DirEntryStat, 0, len(ents))
	for _, e := range ents {
		st, err := fs.Stat(dir + e.Name)
		if errors.Is(err, ENOENT) {
			continue // gone since the listing
		}
		if err != nil {
			return nil, err
		}
		out = append(out, DirEntryStat{Name: e.Name, Stat: st})
	}
	return out, nil
}
