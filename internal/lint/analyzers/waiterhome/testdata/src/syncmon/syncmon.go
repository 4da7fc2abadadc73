// Package syncmon seeds single-home violations against the shapes of the
// real SyncMon condition cache, its slab store, and the Monitor Log ring
// (same type and field names). The flagged shapes are the PR 3 lost-wakeup
// bugs: code outside the approved transfer functions reaching into a
// waiter container directly.
package syncmon

type LogEntry struct {
	WG   int
	Addr int64
	Want int64
}

// MonitorLog has the real ring's protected fields.
type MonitorLog struct {
	entries []LogEntry
	dead    []bool
	limit   int
	head    int
	size    int
	live    int
	maxLive int
}

func NewMonitorLog(capacity int) *MonitorLog {
	return &MonitorLog{entries: make([]LogEntry, capacity), dead: make([]bool, capacity), limit: capacity}
}

// Push is an approved ring accessor: its writes are the transfer function.
func (l *MonitorLog) Push(e LogEntry) bool {
	l.entries[(l.head+l.size)%len(l.entries)] = e
	l.size++
	l.live++
	if l.live > l.maxLive {
		l.maxLive = l.live
	}
	return true
}

// Remove is the sanctioned way to take an entry out of the ring.
func (l *MonitorLog) Remove(wg int, addr, want int64) int {
	l.dead[0] = true
	l.live--
	return 1
}

type addrState struct{ head, tail, count int32 }

// flat stands in for hashutil.Flat, the open-addressed index behind the
// real store's byAddr. A map keeps the delete shape exercised.
type flat map[int64]addrState

// condStore has the real slab store's protected fields.
type condStore struct {
	setEnt []int32
	setLen []int32
	byAddr flat
}

// drop is one of the store's own accessors.
func (c *condStore) drop(set int) {
	c.setLen[set]--
	delete(c.byAddr, int64(set))
}

// SyncMon has the real condition cache's protected fields.
type SyncMon struct {
	store   condStore
	waiters int
	conds   int
	log     *MonitorLog
}

// Register is approved for the cache fields.
func (s *SyncMon) Register(wg int, addr int64) {
	s.waiters++
	s.conds++
}

// Unregister may touch the cache, but the ring writes below are the PR 3
// bug shape: tombstoning the Monitor Log behind the CP's back instead of
// going through MonitorLog.Remove, leaving the waiter without a home.
func (s *SyncMon) Unregister(wg int) bool {
	s.waiters--           // approved: Unregister is a cache transfer function
	s.log.dead[0] = true  // want `MonitorLog\.dead holds single-home waiter state`
	s.log.live--          // want `MonitorLog\.live holds single-home waiter state`
	return s.waiters >= 0 // reads are unrestricted
}

// evictHalf is not an approved transfer function for the cache or the
// store.
func (s *SyncMon) evictHalf() {
	s.store.setEnt = nil       // want `condStore\.setEnt holds single-home waiter state`
	delete(s.store.byAddr, 0)  // want `condStore\.byAddr holds single-home waiter state`
	borrow(&s.waiters)         // want `SyncMon\.waiters holds single-home waiter state`
	s.conds = 0                // want `SyncMon\.conds holds single-home waiter state`
	s.log.Remove(0, 0, 0)      // routed through the approved accessor: fine
	_ = len(s.store.setEnt)    // reads are unrestricted
	_, ok := s.store.byAddr[0] // reads are unrestricted
	_ = ok
}

// Restore is the approved whole-home rewind: rewriting every container
// from one snapshot image cannot split a waiter across homes.
func (s *SyncMon) Restore(store condStore, waiters int) {
	s.store = store     // approved: Restore is a transfer function
	s.waiters = waiters // approved: Restore is a transfer function
}

// restore is the ring's approved rewind.
func (l *MonitorLog) restore(head, live int) {
	l.head = head // approved: restore is a ring transfer function
	l.live = live // approved: restore is a ring transfer function
}

// restoreFast is NOT an approved name: a partial rewind outside the
// snapshot layer is exactly the two-homes hazard the rule exists for.
func (l *MonitorLog) restoreFast(head int) {
	l.head = head // want `MonitorLog\.head holds single-home waiter state`
}

func borrow(n *int) {}
