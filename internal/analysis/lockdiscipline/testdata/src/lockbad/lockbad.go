// Package lockbad is lockdiscipline's violating fixture: each marked line
// must produce exactly the diagnostic its want regexp describes.
package lockbad

import "sync"

// T mirrors lockgood's hierarchy.
type T struct {
	//enblogue:lock outer 10
	mu sync.Mutex
	//enblogue:lock inner 20
	imu sync.Mutex
	n   int
}

// addLocked follows the naming convention but declares nothing.
func (t *T) addLocked() { t.n++ } // want `addLocked follows the \*Locked naming convention but lacks an //enblogue:requires`

// subLocked declares its contract; Caller below breaks it.
//
//enblogue:requires outer
func (t *T) subLocked() { t.n-- }

// Reenter acquires a class its callers may hold.
//
//enblogue:acquires outer
func (t *T) Reenter() {
	t.mu.Lock()
	t.mu.Unlock()
}

// Caller invokes a requires-annotated function with nothing held.
func (t *T) Caller() {
	t.subLocked() // want `call to subLocked requires lock class "outer", which is not held here`
}

// Inverted acquires outer while holding inner: the order inversion.
func (t *T) Inverted() {
	t.imu.Lock()
	t.mu.Lock() // want `lock order violation: acquiring "outer" \(order 10\) while holding "inner" \(order 20\)`
	t.mu.Unlock()
	t.imu.Unlock()
}

// Twice re-acquires a held class directly.
func (t *T) Twice() {
	t.mu.Lock()
	t.mu.Lock() // want `acquiring lock class "outer" while already holding it: self-deadlock`
	t.mu.Unlock()
	t.mu.Unlock()
}

// ReenterViaCallee re-acquires a held class through an annotated callee.
func (t *T) ReenterViaCallee() {
	t.mu.Lock()
	t.Reenter() // want `call to Reenter acquires lock class "outer", which the caller already holds: self-deadlock`
	t.mu.Unlock()
}

// B mirrors the broker/subscription-index hierarchy.
type B struct {
	//enblogue:lock broker 30
	mu sync.Mutex
	//enblogue:lock subidx 33
	imu sync.Mutex
}

// SendWhileCollecting acquires the broker's subscription lock while still
// holding the index lock: the inversion the dispatch path must never
// commit (deliver collects under subidx, releases, then sends under
// broker).
func (b *B) SendWhileCollecting() {
	b.imu.Lock()
	b.mu.Lock() // want `lock order violation: acquiring "broker" \(order 30\) while holding "subidx" \(order 33\)`
	b.mu.Unlock()
	b.imu.Unlock()
}

// P mirrors the durability hierarchy (persistSnap 5 < engine 10 <
// wal 15).
type P struct {
	//enblogue:lock persistSnap 5
	snapMu sync.Mutex
	//enblogue:lock engine 10
	mu sync.Mutex
	//enblogue:lock wal 15
	walMu sync.Mutex
}

// SnapshotUnderEngine starts a snapshot while holding the engine lock:
// the nesting the durability layer must never commit — a concurrent
// Snapshot holding snapMu and waiting on the engine would deadlock.
func (p *P) SnapshotUnderEngine() {
	p.mu.Lock()
	p.snapMu.Lock() // want `lock order violation: acquiring "persistSnap" \(order 5\) while holding "engine" \(order 10\)`
	p.snapMu.Unlock()
	p.mu.Unlock()
}

// EngineUnderWAL calls back into the engine from the WAL lock — the
// recorder-must-not-reenter-the-engine contract.
func (p *P) EngineUnderWAL() {
	p.walMu.Lock()
	p.mu.Lock() // want `lock order violation: acquiring "engine" \(order 10\) while holding "wal" \(order 15\)`
	p.mu.Unlock()
	p.walMu.Unlock()
}

// M mirrors the tiered-memory hierarchy (pairs 40 < tier 45).
type M struct {
	//enblogue:lock pairs 40
	mu sync.Mutex
	//enblogue:lock tier 45
	tmu sync.Mutex
}

// sweepLocked demotes under the caller's tracker lock.
//
//enblogue:requires pairs
func (m *M) sweepLocked() {}

// TrackerUnderTier reaches into the exact tier from inside the tail: the
// tail must never call back into the tracker, which holds its own lock
// around every tail call.
func (m *M) TrackerUnderTier() {
	m.tmu.Lock()
	m.mu.Lock() // want `lock order violation: acquiring "pairs" \(order 40\) while holding "tier" \(order 45\)`
	m.mu.Unlock()
	m.tmu.Unlock()
}

// SweepUnlocked runs the sweep without the tracker lock: a concurrent
// observer would race the eviction.
func (m *M) SweepUnlocked() {
	m.sweepLocked() // want `call to sweepLocked requires lock class "pairs", which is not held here`
}
