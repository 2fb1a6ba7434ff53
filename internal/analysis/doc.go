// The invariant catalogue.
//
// Each plfslint analyzer mechanizes one rule that earlier PRs
// established in prose (comments, commit messages, review threads) and
// that at least one real bug has violated since. The analyzer is the
// durable form of the rule: the comment can go stale, the finding
// cannot.
//
// The typed-nil class (PR 6: a nil *iostats.Plane stored in a
// telemetry interface compared != nil, and the first call segfaulted)
// has no analyzer: telemetry is passed as a concrete *iostats.Plane,
// nil meaning off, and every plane and layer method accepts a nil
// receiver, so the typed-nil store cannot be written.
//
// # lockorder — the data path's three locks have a declared ranking
//
// Invariant: FS.hmu (container registry) before container.mu (the
// per-container writer table) before writer.mu (per-pid writer shard),
// within any one function including its closures. Scope:
// ldplfs/internal/plfs only.
//
// History: the PR 2 truncate redesign fixed a deadlock between
// container-level truncation and operations that re-entered the
// registry while holding the lock below it. Distinct instances of one
// rank cannot be ordered statically, so same-rank reacquisition is
// allowed. A ranking entry that names no mutex field of the scoped
// package is a finding, like a stale allowlist entry: a rename must
// move the rank with it.
//
// # errnopreserve — errors that cross the wire keep their errno chain
//
// Invariant: in ldplfs/internal/service (and client), internal/posix
// and cmd/plfsd, errors are wrapped with %w, never %v/%s or
// err.Error(). The PR 6 wire protocol answers every request with an
// i32 status derived by service.ErrnoOf via errors.As; a severed chain
// degrades ENOENT to EIO and remote tools take wrong fallback paths.
//
// History: this PR's initial run found cmd/plfsd formatting a tenant
// spec parse error with %v (now %w).
//
// # clockinject — no wall-clock reads behind the injected clock
//
// Invariant: ldplfs/internal/tune and ldplfs/internal/service never
// call time.Now/Since/Until/Sleep/After/Tick/NewTimer/NewTicker/
// AfterFunc directly; time flows through tune.Clock so ManualClock
// tests stay deterministic.
//
// History: the PR 5 autotune controller and the PR 6 QoS token bucket
// are both tested by driving a ManualClock; a stray wall-clock call
// flakes those tests only under load, the worst kind of failure. Two
// sites legitimately touch wall time and carry allowlisted ignores:
// tune.wallClock.Now (the real-clock implementation itself) and
// qos.sleep (paying token-bucket debt in real time).
//
// # atomicfield — no mixed atomic/plain access to one variable
//
// Invariant: if any site in a package passes &x to a sync/atomic
// Load/Store/Add/Swap/CompareAndSwap, every other access to x is
// atomic too. One plain read of an atomically-written knob compiles
// fine, races, and only occasionally trips the race detector because
// the window is a single load.
//
// History: the PR 5 runtime knob overrides made "written atomically,
// read on the data path" a standing pattern; the engines migrated to
// atomic.Int32 wrapper types, which make mixed access inexpressible,
// and the overrides themselves went in PRs 20 (plfs) and 21 (mpiio) —
// this analyzer covers the function-style atomics that remain. Mutex-guarded mixed use (atomic
// write, read under the lock all writers hold) is the legitimate
// exception; suppress it inline.
//
// # bufpool — pooled buffers return to their pool; hot paths don't allocate
//
// Invariant: in ldplfs/internal/plfs, ldplfs/internal/mpiio and
// ldplfs/internal/service/..., every (*sync.Pool).Get is paired in the
// same function with a Put — deferred directly or through a releasing
// helper that contains the Put (the plan.release idiom) — and the hot
// functions (bufpool.HotFuncs: the engine's scatterGather, planBatches,
// readBatch, failBatch, writeV; the collective shuffle's routing
// and staging loop; the gateway wire's frame reads and writes, handleFrame,
// and the client's roundTrip, readAt and writeAt; and every Pread and
// Pwrite, matched by name in each checked package) never make([]byte, ...)
// per call.
//
// History: the PR 9 zero-alloc rework moved the warm read/write paths
// onto pooled plans and buffers, asserted by allocs-per-op budgets in
// CI. Those budgets only watch the benchmarked paths; a leaked Get or
// a fresh buffer on an unbenchmarked branch silently degrades pooling
// back to per-call heap churn. The analyzer is the rule's durable
// form; the alloc budget is its spot check. The gateway wire joined in
// PR 24: it had allocated four 64 KiB buffers per data op since it was
// written, and now reads and renders frames in buffers each connection
// owns — frameBuf.sized is the one grow-on-demand and stays outside
// the hot set.
//
// # Running and suppressing
//
// Run the multichecker exactly as CI does:
//
//	go run ./cmd/plfslint ./...
//
// Exit 0 is clean; 1 means findings; 2 a usage or load failure.
// To suppress a finding, put an inline comment on the flagged line or
// the line directly above:
//
//	//plfslint:ignore <analyzer> <reason>
//
// and add a covering line to plfslint.allow at the module root:
//
//	<analyzer> <module-relative-file> <justification>
//
// The driver reports an ignore without an allowlist entry, an ignore
// that no longer suppresses anything, and an allowlist entry with no
// matching ignore as findings — the suppression set stays exact.

package analysis
