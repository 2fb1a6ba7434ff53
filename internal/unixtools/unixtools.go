// Package unixtools implements the standard UNIX tools of the paper's
// Table II — cp, cat, grep, md5sum — as "unmodified binaries": they issue
// every file operation through the posix.FS they are handed and know
// nothing about PLFS. Handing them the LDPLFS shim (core.New) instead of
// the plain system retargets them onto containers, which is exactly the
// paper's demonstration that raw data can be extracted from PLFS
// structures without a FUSE mount.
package unixtools

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"io"

	"ldplfs/internal/posix"
)

// bufSizes mirror coreutils behaviour: cp moves big blocks, the streaming
// tools use small ones. The distinction matters on PLFS (Table II's cp
// benefits from multi-dropping fan-in on large reads).
const (
	CpBufSize     = 4 << 20
	StreamBufSize = 128 << 10
)

// reader adapts an fd to io.Reader for the streaming tools.
type reader struct {
	fs posix.FS
	fd int
}

func (r *reader) Read(p []byte) (int, error) {
	n, err := r.fs.Read(r.fd, p)
	if err != nil {
		return n, err
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Cp copies src to dst (cp src dst). Like cp, it streams through a large
// buffer and preserves nothing but bytes.
func Cp(fs posix.FS, src, dst string) (int64, error) {
	in, err := fs.Open(src, posix.O_RDONLY, 0)
	if err != nil {
		return 0, fmt.Errorf("cp: %s: %w", src, err)
	}
	defer fs.Close(in)
	out, err := fs.Open(dst, posix.O_CREAT|posix.O_WRONLY|posix.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("cp: %s: %w", dst, err)
	}
	defer fs.Close(out)

	var total int64
	buf := make([]byte, CpBufSize)
	for {
		n, err := fs.Read(in, buf)
		if err != nil {
			return total, fmt.Errorf("cp: read %s: %w", src, err)
		}
		if n == 0 {
			return total, nil
		}
		w := 0
		for w < n {
			m, err := fs.Write(out, buf[w:n])
			if err != nil {
				return total, fmt.Errorf("cp: write %s: %w", dst, err)
			}
			w += m
		}
		total += int64(n)
	}
}

// Cat streams src to w (cat src > w).
func Cat(fs posix.FS, src string, w io.Writer) (int64, error) {
	fd, err := fs.Open(src, posix.O_RDONLY, 0)
	if err != nil {
		return 0, fmt.Errorf("cat: %s: %w", src, err)
	}
	defer fs.Close(fd)
	var total int64
	buf := make([]byte, StreamBufSize)
	for {
		n, err := fs.Read(fd, buf)
		if err != nil {
			return total, fmt.Errorf("cat: %s: %w", src, err)
		}
		if n == 0 {
			return total, nil
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return total, err
		}
		total += int64(n)
	}
}

// GrepMatch is one matching line.
type GrepMatch struct {
	LineNo int // 1-based
	Line   string
}

// Grep returns the lines of src containing pattern (fixed string, like
// grep -F), streaming with a small buffer.
func Grep(fs posix.FS, pattern, src string) ([]GrepMatch, error) {
	fd, err := fs.Open(src, posix.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("grep: %s: %w", src, err)
	}
	defer fs.Close(fd)

	var matches []GrepMatch
	pat := []byte(pattern)
	lineNo := 1
	var partial []byte
	buf := make([]byte, StreamBufSize)
	for {
		n, err := fs.Read(fd, buf)
		if err != nil {
			return matches, fmt.Errorf("grep: %s: %w", src, err)
		}
		if n == 0 {
			if len(partial) > 0 && bytes.Contains(partial, pat) {
				matches = append(matches, GrepMatch{LineNo: lineNo, Line: string(partial)})
			}
			return matches, nil
		}
		chunk := buf[:n]
		for {
			nl := bytes.IndexByte(chunk, '\n')
			if nl < 0 {
				partial = append(partial, chunk...)
				break
			}
			line := chunk[:nl]
			if len(partial) > 0 {
				line = append(partial, line...)
			}
			if bytes.Contains(line, pat) {
				matches = append(matches, GrepMatch{LineNo: lineNo, Line: string(line)})
			}
			partial = partial[:0]
			lineNo++
			chunk = chunk[nl+1:]
		}
	}
}

// Md5sum computes the MD5 digest of src, streaming like the coreutils
// tool, and returns it hex-encoded.
func Md5sum(fs posix.FS, src string) (string, error) {
	fd, err := fs.Open(src, posix.O_RDONLY, 0)
	if err != nil {
		return "", fmt.Errorf("md5sum: %s: %w", src, err)
	}
	defer fs.Close(fd)
	h := md5.New()
	if _, err := io.Copy(h, &reader{fs: fs, fd: fd}); err != nil {
		return "", fmt.Errorf("md5sum: %s: %w", src, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Ls lists a directory the way ls -1 would (names only, sorted), with a
// type marker for directories — used to show containers appearing as
// plain files under LDPLFS.
func Ls(fs posix.FS, dir string) ([]string, error) {
	entries, err := fs.Readdir(dir)
	if err != nil {
		return nil, fmt.Errorf("ls: %s: %w", dir, err)
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name
		if e.IsDir {
			name += "/"
		}
		out = append(out, name)
	}
	return out, nil
}
