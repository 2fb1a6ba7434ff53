// Telemetry for the PLFS engines: with WithStats, the instance reports
// every open/read/write/sync through one iostats layer ("plfs") and
// registers the shared index cache's counters on a second
// ("readcache"). Without it, every recording call is a nil check — the
// plane is pay-for-what-you-touch.
package plfs

import (
	"time"

	"ldplfs/internal/iostats"
)

// opStart samples the clock for a latency measurement iff telemetry
// is on.
func (p *FS) opStart() time.Time { return p.stats.Start() }

// observeOp records one completed engine operation.
func (p *FS) observeOp(op iostats.Op, n int64, start time.Time, err error) {
	p.stats.End(op, n, start, err)
}
