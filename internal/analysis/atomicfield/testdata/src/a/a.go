// Fixture for the atomicfield analyzer: variables whose address feeds
// sync/atomic must never be touched with plain loads or stores.
package a

import "sync/atomic"

// knobs mirrors the PR 5 runtime-override pattern before the engines
// migrated to atomic wrapper types: function-style atomics over plain
// int fields.
type knobs struct {
	readWorkers int32
	stripeBytes int64
	label       string
}

// setWorkers is the atomic writer that puts readWorkers under the
// analyzer's watch.
func (k *knobs) setWorkers(n int32) {
	atomic.StoreInt32(&k.readWorkers, n)
}

// Atomic readers of a watched field are fine.
func (k *knobs) loadOK() int32 {
	return atomic.LoadInt32(&k.readWorkers)
}

// Regression: the race the wrapper migration closed. A plain read of
// an atomically-written field compiles, races, and only occasionally
// trips the detector because the window is one load.
func (k *knobs) plainRead() int32 {
	return k.readWorkers // want `plain access of readWorkers, which is accessed atomically elsewhere \(atomic\.StoreInt32\)`
}

func (k *knobs) plainWrite() {
	k.readWorkers = 1 // want `plain access of readWorkers`
}

func (k *knobs) addStripe(n int64) {
	atomic.AddInt64(&k.stripeBytes, n)
}

func (k *knobs) plainStripe() int64 {
	return k.stripeBytes // want `plain access of stripeBytes, which is accessed atomically elsewhere \(atomic\.AddInt64\)`
}

// Fields never touched by sync/atomic are out of scope.
func (k *knobs) labelOK() string {
	return k.label
}

// Package-level variables are watched the same way as fields.
var seq int64

func nextSeq() int64 {
	return atomic.AddInt64(&seq, 1)
}

func plainSeq() int64 {
	return seq // want `plain access of seq, which is accessed atomically elsewhere \(atomic\.AddInt64\)`
}
