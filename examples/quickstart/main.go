// Quickstart: load LDPLFS into a process and use plain POSIX calls on a
// PLFS mount — no application changes, no FUSE, no MPI rebuild.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ldplfs/internal/core"
	"ldplfs/internal/posix"
)

func main() {
	// The "machine": an in-memory POSIX file system with a directory that
	// will hold PLFS containers.
	system := posix.NewMemFS()
	if err := system.Mkdir("/backend", 0o755); err != nil {
		log.Fatal(err)
	}

	// The "process": the file API a freshly exec'd binary calls, with
	// the shim loaded over the system — the effect of
	// export LDPLFS_MNT=/mnt/plfs=/backend && LD_PRELOAD=libldplfs.so
	proc, err := core.New(system, core.Config{
		Mounts: []core.Mount{{Point: "/mnt/plfs", Backend: "/backend"}},
		Pid:    1234,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The application is ordinary POSIX code.
	fd, err := proc.Open("/mnt/plfs/results.dat", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := proc.Write(fd, []byte("hello from a log-structured container\n")); err != nil {
		log.Fatal(err)
	}
	proc.Lseek(fd, 0, posix.SEEK_SET)
	buf := make([]byte, 64)
	n, err := proc.Read(fd, buf)
	if err != nil {
		log.Fatal(err)
	}
	proc.Close(fd)
	fmt.Printf("read back: %q\n", buf[:n])

	// What actually hit the disk: a container directory, not a file.
	st, _ := system.Stat("/backend/results.dat")
	fmt.Printf("backend entry is a directory: %v (PLFS container)\n", st.IsDir())
	entries, _ := system.Readdir("/backend/results.dat")
	for _, e := range entries {
		fmt.Printf("  container member: %s\n", e.Name)
	}
	fmt.Printf("shim stats: %d calls interposed, %d passed through\n",
		proc.Stats.Interposed.Load(), proc.Stats.PassedThru.Load())
}
