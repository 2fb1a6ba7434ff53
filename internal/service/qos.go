package service

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ldplfs/internal/iostats"
	"ldplfs/internal/tune"
)

// TokenBucket is a byte/op rate limiter with borrowable tokens: a
// request larger than the current balance is admitted immediately but
// drives the balance negative, and the caller must sleep for the time
// it takes the refill to pay the debt back. That shape keeps single
// large requests flowing (a request bigger than burst still completes)
// while bounding the sustained rate: over any interval [t0,t1] the
// bytes admitted never exceed rate*(t1-t0) + burst + one request.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // maximum positive balance
	tokens float64 // current balance; negative = borrowed
	last   time.Time
	clock  tune.Clock
}

// NewTokenBucket returns a bucket refilled at rate tokens/sec with the
// given burst capacity (bucket starts full). rate <= 0 means unlimited:
// Take always returns 0. A nil clock uses wall time; tests inject
// tune.ManualClock.
func NewTokenBucket(rate, burst int64, clock tune.Clock) *TokenBucket {
	if clock == nil {
		clock = tune.WallClock()
	}
	b := &TokenBucket{
		rate:  float64(rate),
		burst: float64(burst),
		clock: clock,
	}
	b.tokens = b.burst
	b.last = clock.Now()
	return b
}

// Take withdraws n tokens and returns how long the caller must wait
// before proceeding (0 = proceed now). The withdrawal itself is
// immediate — callers sleep outside the lock, so concurrent takers
// accumulate debt in admission order rather than serializing behind
// each other's sleeps.
func (b *TokenBucket) Take(n int64) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate <= 0 {
		return 0
	}
	now := b.clock.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// SetRate changes the refill rate (tokens/sec; <= 0 = unlimited) — the
// surface the QoS governor actuates.
func (b *TokenBucket) SetRate(rate int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Settle the balance at the old rate first, so a rate change never
	// retroactively re-prices tokens already accrued.
	now := b.clock.Now()
	if b.rate > 0 {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	b.rate = float64(rate)
}

// Rate reports the current refill rate.
func (b *TokenBucket) Rate() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(b.rate)
}

// admission is the contention stage: a bounded pool of inflight slots
// with strict priority between classes and weighted service within a
// class. Under saturation a hostile low-priority tenant queues behind
// every high-priority request, while same-class tenants share slots in
// proportion to their weights (deficit-style: the waiter whose tenant
// has the least service-per-weight goes first).
type admission struct {
	mu       sync.Mutex
	capacity int
	inflight int
	waiters  []*waiter
}

type waiter struct {
	ready    chan struct{}
	priority int
	tenant   *Tenant
	seq      uint64 // FIFO tiebreak within a tenant
}

func newAdmission(capacity int) *admission {
	if capacity <= 0 {
		capacity = 64
	}
	return &admission{capacity: capacity}
}

var admissionSeq uint64

// acquire blocks until a slot is granted.
func (a *admission) acquire(t *Tenant) {
	a.mu.Lock()
	if a.inflight < a.capacity && len(a.waiters) == 0 {
		a.inflight++
		a.mu.Unlock()
		return
	}
	admissionSeq++
	w := &waiter{ready: make(chan struct{}), priority: t.Priority, tenant: t, seq: admissionSeq}
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()
	<-w.ready
}

// release frees a slot and grants it to the best waiter: lowest
// priority value first; within a class, the tenant with the least
// admitted-bytes-per-weight; within a tenant, FIFO.
func (a *admission) release() {
	a.mu.Lock()
	a.inflight--
	a.grantLocked()
	a.mu.Unlock()
}

func (a *admission) grantLocked() {
	if a.inflight >= a.capacity || len(a.waiters) == 0 {
		return
	}
	best := 0
	for i := 1; i < len(a.waiters); i++ {
		if admissionLess(a.waiters[i], a.waiters[best]) {
			best = i
		}
	}
	w := a.waiters[best]
	a.waiters = append(a.waiters[:best], a.waiters[best+1:]...)
	a.inflight++
	close(w.ready)
}

// admissionLess orders waiters: strict priority, then weighted deficit,
// then FIFO.
func admissionLess(x, y *waiter) bool {
	if x.priority != y.priority {
		return x.priority < y.priority
	}
	xd := float64(x.tenant.served.Load()) / float64(x.tenant.weight())
	yd := float64(y.tenant.served.Load()) / float64(y.tenant.weight())
	if xd != yd {
		return xd < yd
	}
	return x.seq < y.seq
}

// TenantConfig is the per-tenant policy half of the gateway config. A
// tenant's PLFS instance is not configured here: every tenant runs a
// default instance over the gateway's one store (Config.Backend).
type TenantConfig struct {
	// Name identifies the tenant on the wire (Hello) and in telemetry
	// (layer "tenant:<name>").
	Name string

	// Priority is the admission class: 0 is served strictly first, 1
	// next, and so on. Latency-sensitive tenants get 0; batch and
	// hostile-by-default tenants get 1+.
	Priority int

	// Weight shares slots within a priority class (default 1): a
	// weight-2 tenant gets twice the service of a weight-1 peer under
	// contention.
	Weight int

	// ReadBytesPerSec / WriteBytesPerSec are token-bucket rate caps on
	// the tenant's data path (0 = unlimited). Burst defaults to one
	// second of rate.
	ReadBytesPerSec  int64
	WriteBytesPerSec int64

	// OpsPerSec caps the tenant's total operation rate (0 = unlimited);
	// the lever against metadata-spam rather than byte floods.
	OpsPerSec int64

	// Burst overrides the buckets' burst capacity in bytes/ops.
	Burst int64
}

// Tenant is one admitted tenant's live policy state: its buckets, its
// admission identity, and its telemetry layer.
type Tenant struct {
	Name     string
	Priority int
	Weight   int

	readBucket  *TokenBucket
	writeBucket *TokenBucket
	opBucket    *TokenBucket

	// ls is the tenant's scoped layer on the gateway plane
	// ("tenant:<name>"): op latency histograms there include queueing
	// and bucket delay, which is exactly what a tenant experiences.
	ls *iostats.LayerStats

	// served accumulates admitted bytes for the weighted-deficit
	// admission order.
	served atomic.Int64
}

func (t *Tenant) weight() int {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// Layer exposes the tenant's telemetry layer (benchmarks read p99 read
// latency from here).
func (t *Tenant) Layer() *iostats.LayerStats { return t.ls }

// ReadRate reports the tenant's current read-byte rate cap (0 =
// unlimited) — observed by the governor tests.
func (t *Tenant) ReadRate() int64 { return t.readBucket.Rate() }

// qos is the gateway's enforcement stage: per-tenant buckets plus the
// shared admission pool.
type qos struct {
	adm     *admission
	tenants map[string]*Tenant
	clock   tune.Clock
}

func newQoS(cfgs []TenantConfig, collector iostats.Collector, inflight int, clock tune.Clock) *qos {
	if clock == nil {
		clock = tune.WallClock()
	}
	q := &qos{
		adm:     newAdmission(inflight),
		tenants: make(map[string]*Tenant, len(cfgs)),
		clock:   clock,
	}
	for _, tc := range cfgs {
		burst := tc.Burst
		t := &Tenant{
			Name:        tc.Name,
			Priority:    tc.Priority,
			Weight:      tc.Weight,
			readBucket:  NewTokenBucket(tc.ReadBytesPerSec, defaultBurst(tc.ReadBytesPerSec, burst), clock),
			writeBucket: NewTokenBucket(tc.WriteBytesPerSec, defaultBurst(tc.WriteBytesPerSec, burst), clock),
			opBucket:    NewTokenBucket(tc.OpsPerSec, defaultBurst(tc.OpsPerSec, burst), clock),
		}
		if collector != nil {
			t.ls = collector.Layer("tenant:" + tc.Name)
		}
		q.tenants[tc.Name] = t
	}
	return q
}

// defaultBurst is one second of rate unless overridden.
func defaultBurst(rate, override int64) int64 {
	if override > 0 {
		return override
	}
	return rate
}

// tenant resolves a Hello's tenant name (nil = unknown).
func (q *qos) tenant(name string) *Tenant { return q.tenants[name] }

// Tenants lists the admitted tenants sorted by name.
func (q *qos) Tenants() []*Tenant {
	out := make([]*Tenant, 0, len(q.tenants))
	for _, t := range q.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// enter runs the full QoS stage for one operation: op-rate bucket,
// byte bucket for the data direction, then priority admission. The
// slot it takes is freed by q.adm.release. Bucket debts are paid by
// sleeping BEFORE admission, so a rate-limited tenant never holds an
// inflight slot while it waits for tokens.
func (q *qos) enter(t *Tenant, op iostats.Op, bytes int64) {
	if d := q.opBucketDelay(t); d > 0 {
		q.sleep(d)
	}
	var bucket *TokenBucket
	switch op {
	case iostats.Read:
		bucket = t.readBucket
	case iostats.Write:
		bucket = t.writeBucket
	}
	if bucket != nil && bytes > 0 {
		if d := bucket.Take(bytes); d > 0 {
			q.sleep(d)
		}
	}
	q.adm.acquire(t)
	t.served.Add(bytes + 1) // +1 so metadata ops advance the deficit too
}

func (q *qos) opBucketDelay(t *Tenant) time.Duration {
	return t.opBucket.Take(1)
}

// sleep blocks for d. With a manual clock the sleep degrades to a
// yield: deterministic tests advance time themselves, and what they
// assert is the bucket arithmetic, not the scheduler.
func (q *qos) sleep(d time.Duration) {
	if _, manual := q.clock.(*tune.ManualClock); manual {
		return
	}
	//plfslint:ignore clockinject sleep is the QoS stage's one real-wall-time effect: paying bucket debt; the manual-clock branch above keeps tests deterministic
	time.Sleep(d)
}
