// Package posix defines a POSIX-like virtual file system layer: the FS
// interface (open/read/write/lseek/... operating on integer file
// descriptors), a set of interchangeable backends (OSFS, MemFS, NullFS), and
// the Dispatch symbol table through which every "application" in this
// repository issues its file operations.
//
// Dispatch is the Go analogue of the libc dynamic symbol table: LDPLFS
// (internal/core) interposes itself by swapping Dispatch entries, exactly as
// the Linux loader swaps open/read/write symbols when LD_PRELOAD names a
// shim library.
//
// # Composite backends and layouts
//
// StripedFS composes N backends into one FS. Which backends hold a path
// is decided by a Layout — a pure function of (path, N), so every
// instance over the same backend list agrees on placement without any
// coordination, exactly as PLFS mounts agree on hostdir placement.
// A Layout is one value, its replica count R, named by a descriptor
// string, the form persisted inside a container:
//
//   - "mod-n" (R = 1, the default): hostdir.K lives on backend K mod N;
//     canonical paths (container markers, openhosts/) live on
//     backend 0. One copy of everything — the bandwidth-aggregation
//     layout.
//   - "replica-R": each path lives on R consecutive backends starting
//     at its mod-N primary; canonical paths live on backends 0..R-1.
//     Writes fan out to every live replica, reads serve from the
//     primary and fail over on error, and plfsctl doctor re-replicates
//     whatever a dead backend missed. The doctor's walk and repair are
//     StripedFS's too: Copies lists a directory's copies on each of its
//     owners, and Heal rebuilds one owner's copy from another's, so the
//     layout is consulted in this package only.
//
// Mod-N is not a separate code path: it is the width-1 case of the one
// replica loop, under three rules each stated once in stripedfs.go and
// enumerated by TestFailureBudgetWindow, TestLiveVerdictOutranksDeadEIO
// and TestSoleOwnerIsPassThrough:
//
//   - Failure budget (across). A layout of width W keeps a survivor in
//     every replica set while fewer than W backends have failed, so a
//     path op rides out W-1 dead backends (EIO) and the next one aborts
//     it; mod-N tolerates none and fails fast on its primary. A
//     backend's ENOENT is never a failure — a shadow may never have
//     held the path — and a live backend's refusal (ENOTEMPTY, EEXIST,
//     EACCES) is a verdict returned at once, not a failure to ride
//     out. So a directory listing is complete or an error, never
//     silently short, and a directory whose hostdirs live on shadows
//     cannot be removed from under them.
//   - Live verdict (liveVerdict). When no owner can serve, a live
//     backend's answer outranks a dead backend's EIO: the survivor
//     actually looked.
//   - The last replica stays live (stripedFD.retire). A descriptor's
//     replica is disabled only when another replica served the
//     operation it failed. When every replica fails none is disabled
//     and the primary-most error, byte count included, comes back
//     exactly as its backend returned it — which is all a sole owner
//     ever sees, so a mod-N descriptor is a pass-through that a
//     transient error never poisons.
//
// The layout contract, pinned by the table tests in layout_test.go:
// Replicas(path, n) returns 1..Width() distinct indices in [0, n),
// primary first; the primary always equals the mod-N owner (so data
// written under one layout is found under another and migration never
// moves the authoritative copy); placement is deterministic, and every
// path below one hostdir shares that hostdir's replica set. LayoutFor
// rejects a descriptor whose Width exceeds the backend count.
//
// # One interposer
//
// Interpose(inner, hooks...) is the package's one hand-written
// forwarder: one table over the FS methods, Preadv/Pwritev and
// ReaddirStat, one fd→path map, one Unwrap. Each call becomes an Op
// value that hooks see twice. Befores run outermost first and may
// refuse the op (a refused write may keep a byte prefix) or delay it;
// a refusal skips the inner call and every hook inside the refusing
// one. Afters run innermost first, to count, time and observe, so a
// hook outside a refusal still sees it, as an error. The exemptions
// are stated there once: a whole vector is one op, and so is a listing
// with attributes; Close never runs Before (no fault, service time or
// kill reaches it), and Lseek reaches no hook.
//
// FaultFS and InstrumentFS are hook sets on it, and so is the iotrace
// recorder. FaultFS injects per-op error rules (Partial short writes,
// Gate stalls), a service slot (SetServiceTime), whole-backend
// Kill/Revive, and op-count schedules: the substrate for the chaos
// tests that prove the replica data path survives a backend dying
// mid-write. InstrumentFS reports every op to an iostats layer.
package posix
