// Telemetry for the PLFS engines: with TelemetryOptions.Stats set, the
// instance reports every open/read/write/sync through one iostats layer
// ("plfs") and registers the shared index cache's counters on a second
// ("readcache"). With it unset, every recording call is a nil check —
// the plane is pay-for-what-you-touch.
package plfs

import (
	"time"

	"ldplfs/internal/iostats"
)

// initTelemetry wires the stats layers. Called once from New.
func (p *FS) initTelemetry() {
	if p.cfg.Telemetry.Stats != nil {
		p.stats = p.cfg.Telemetry.Stats.Layer("plfs")
		p.cacheLayer = p.cfg.Telemetry.Stats.Layer("readcache")
	} else {
		p.cacheLayer = iostats.NewLayerStats("readcache")
	}
}

// opStart samples the clock for a latency measurement iff telemetry
// is on.
func (p *FS) opStart() time.Time { return p.stats.Start() }

// observeOp records one completed engine operation.
func (p *FS) observeOp(op iostats.Op, n int64, start time.Time, err error) {
	p.stats.End(op, n, start, err)
}
