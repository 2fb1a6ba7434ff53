package a

// A justified inversion (e.g. a shutdown path that owns every lock
// exclusively) is silenced with an inline ignore; the driver
// additionally demands an allowlist entry.
func suppressedInversion(p *FS, c *container) {
	c.mu.Lock()
	//plfslint:ignore lockorder fixture pins that a justified ignore suppresses the inversion finding
	p.hmu.RLock()
	p.hmu.RUnlock()
	c.mu.Unlock()
}
