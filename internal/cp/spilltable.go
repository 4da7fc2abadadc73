package cp

import (
	"awgsim/internal/gpu"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
)

// nilRef marks an empty slab link.
const nilRef int32 = -1

// spillSlot is one slab-resident spilled condition. A slot exists while it
// has live waiters (it is "in the table") or pending removed-tombstones (a
// waiter withdrawn while its log entry sat in a drain batch in flight).
// An in-table slot is also a link of its address's condition chain.
type spillSlot struct {
	key condKey

	wHead, wTail int32 // live waiters, drain arrival order (FIFO)
	wLen         int32

	rHead int32 // removed-tombstone WGs awaiting drain consumption
	rLen  int32

	anext int32 // next in-table condition on key.addr, drain arrival order
	next  int32 // freelist link while unallocated
}

// addrChain is one monitored address's in-table conditions: an intrusive
// list through spillSlot.anext, in the order they entered the table.
type addrChain struct{ head, tail int32 }

// wakeRef is one waiter of a met condition, queued for its wake.
type wakeRef struct {
	wg   gpu.WGID
	want int64
}

// wgNode is one waiter/tombstone list node.
type wgNode struct {
	wg   gpu.WGID
	next int32
}

// spillTable is the CP's in-memory spilled-condition store: a slab of
// condition slots indexed by an open-addressed (addr, want, cmp) table,
// with intrusive freelist-backed waiter and tombstone lists, and an
// open-addressed index from each monitored address to its condition chain.
// One L2 read of an address serves its whole chain; the walk order over
// addresses stays with the Processor.
type spillTable struct {
	ents    []spillSlot
	freeEnt int32

	wnodes []wgNode
	freeW  int32

	idx   *hashutil.Flat[condKey, int32]      // key -> 1-based slot ref (0 = fresh)
	addrs *hashutil.Flat[mem.Addr, addrChain] // monitored address -> condition chain

	waiters  int // total live waiters
	condLive int // conditions with live waiters
}

func newSpillTable() spillTable {
	hashKey := func(k condKey) uint64 {
		h := hashutil.Mix64(uint64(k.addr))
		h = hashutil.Mix64(h ^ uint64(k.want))
		return hashutil.Mix64(h ^ uint64(k.cmp))
	}
	return spillTable{
		freeEnt: nilRef,
		freeW:   nilRef,
		idx:     hashutil.NewFlat[condKey, int32](64, hashKey),
		addrs: hashutil.NewFlat[mem.Addr, addrChain](64, func(a mem.Addr) uint64 {
			return hashutil.Mix64(uint64(a))
		}),
	}
}

// monitoredAddrs reports distinct addresses with in-table conditions.
func (t *spillTable) monitoredAddrs() int { return t.addrs.Len() }

func (t *spillTable) lookup(k condKey) int32 {
	p := t.idx.Ref(k)
	if p == nil {
		return nilRef
	}
	return *p - 1
}

func (t *spillTable) getOrCreate(k condKey) int32 {
	p := t.idx.Put(k)
	if *p == 0 {
		e := t.alloc(k)
		*p = e + 1
		return e
	}
	return *p - 1
}

func (t *spillTable) alloc(k condKey) int32 {
	var e int32
	if t.freeEnt != nilRef {
		e = t.freeEnt
		t.freeEnt = t.ents[e].next
	} else {
		t.ents = append(t.ents, spillSlot{})
		e = int32(len(t.ents) - 1)
	}
	t.ents[e] = spillSlot{key: k, wHead: nilRef, wTail: nilRef, rHead: nilRef}
	return e
}

// maybeFree releases e once it holds neither waiters nor tombstones.
func (t *spillTable) maybeFree(e int32) {
	s := &t.ents[e]
	if s.wLen > 0 || s.rLen > 0 {
		return
	}
	t.idx.Delete(s.key)
	s.next = t.freeEnt
	t.freeEnt = e
}

// newNode takes a list node holding wg off the freelist, growing the slab
// when the freelist is empty.
func (t *spillTable) newNode(wg gpu.WGID, next int32) int32 {
	w := t.freeW
	if w == nilRef {
		t.wnodes = append(t.wnodes, wgNode{})
		w = int32(len(t.wnodes) - 1)
	} else {
		t.freeW = t.wnodes[w].next
	}
	t.wnodes[w] = wgNode{wg: wg, next: next}
	return w
}

func (t *spillTable) pushNode(head, tail *int32, wg gpu.WGID) {
	w := t.newNode(wg, nilRef)
	if *tail == nilRef {
		*head = w
	} else {
		t.wnodes[*tail].next = w
	}
	*tail = w
}

// addWaiter appends wg to k's waiter list (drain arrival order). A
// condition entering the table joins the tail of its address's chain;
// newAddr reports that the address was not monitored before.
func (t *spillTable) addWaiter(k condKey, wg gpu.WGID) (newAddr bool) {
	e := t.getOrCreate(k)
	s := &t.ents[e]
	t.pushNode(&s.wHead, &s.wTail, wg)
	s.wLen++
	t.waiters++
	if s.wLen > 1 {
		return false
	}
	t.condLive++
	s.anext = nilRef
	if c := t.addrs.Ref(k.addr); c != nil {
		t.ents[c.tail].anext = e
		c.tail = e
		return false
	}
	*t.addrs.Put(k.addr) = addrChain{head: e, tail: e}
	return true
}

// unchain removes in-table slot e from its address's chain, whose slot
// before e is prev (nilRef at the head), reporting whether the address
// has no condition left.
func (t *spillTable) unchain(e, prev int32) (addrGone bool) {
	a := t.ents[e].key.addr
	c := t.addrs.Ref(a)
	if prev == nilRef {
		c.head = t.ents[e].anext
	} else {
		t.ents[prev].anext = t.ents[e].anext
	}
	if c.tail == e {
		c.tail = prev
	}
	if c.head != nilRef {
		return false
	}
	t.addrs.Delete(a)
	return true
}

// removeWaiter unlinks wg from k's waiter list (a policy-timeout
// withdrawal), reporting whether it was present and whether k's address
// lost its last condition with it.
func (t *spillTable) removeWaiter(k condKey, wg gpu.WGID) (removed, addrGone bool) {
	e := t.lookup(k)
	if e == nilRef {
		return false, false
	}
	s := &t.ents[e]
	prev := nilRef
	for w := s.wHead; w != nilRef; w = t.wnodes[w].next {
		if t.wnodes[w].wg != wg {
			prev = w
			continue
		}
		if prev == nilRef {
			s.wHead = t.wnodes[w].next
		} else {
			t.wnodes[prev].next = t.wnodes[w].next
		}
		if s.wTail == w {
			s.wTail = prev
		}
		s.wLen--
		t.wnodes[w].next = t.freeW
		t.freeW = w
		t.waiters--
		if s.wLen == 0 {
			t.condLive--
			before := nilRef
			for x := t.addrs.Ref(k.addr).head; x != e; x = t.ents[x].anext {
				before = x
			}
			addrGone = t.unchain(e, before)
			t.maybeFree(e)
		}
		return true, addrGone
	}
	return false, false
}

// dropWaiters removes every in-table condition on address a that value v
// meets (the check-met wake path), walking a's chain in drain arrival
// order and appending each met condition's waiters to buf in FIFO order.
// addrGone reports that a has no condition left.
func (t *spillTable) dropWaiters(a mem.Addr, v int64, buf []wakeRef) (_ []wakeRef, addrGone bool) {
	c := t.addrs.Ref(a)
	if c == nil {
		return buf, false
	}
	prev := nilRef
	for e := c.head; e != nilRef; {
		s := &t.ents[e]
		next := s.anext
		if !s.key.cmp.Test(v, s.key.want) {
			prev, e = e, next
			continue
		}
		for w := s.wHead; w != nilRef; {
			buf = append(buf, wakeRef{t.wnodes[w].wg, s.key.want})
			nx := t.wnodes[w].next
			t.wnodes[w].next = t.freeW
			t.freeW = w
			w = nx
		}
		t.waiters -= int(s.wLen)
		t.condLive--
		s.wHead, s.wTail, s.wLen = nilRef, nilRef, 0
		addrGone = t.unchain(e, prev)
		t.maybeFree(e)
		e = next
	}
	return buf, addrGone
}

// addTombstone records that wg withdrew from k while its spill was in a
// drain batch in flight. Set semantics: a WG is recorded at most once per
// condition, as with the old map-of-sets.
func (t *spillTable) addTombstone(k condKey, wg gpu.WGID) {
	e := t.getOrCreate(k)
	s := &t.ents[e]
	for w := s.rHead; w != nilRef; w = t.wnodes[w].next {
		if t.wnodes[w].wg == wg {
			return
		}
	}
	// Tombstone list order is immaterial (membership only): push at head.
	s.rHead = t.newNode(wg, s.rHead)
	s.rLen++
}

// consumeTombstone removes wg's tombstone on k if present (a drain pop
// matching a withdrawn waiter), reporting whether one was consumed.
func (t *spillTable) consumeTombstone(k condKey, wg gpu.WGID) bool {
	e := t.lookup(k)
	if e == nilRef {
		return false
	}
	s := &t.ents[e]
	prev := nilRef
	for w := s.rHead; w != nilRef; w = t.wnodes[w].next {
		if t.wnodes[w].wg != wg {
			prev = w
			continue
		}
		if prev == nilRef {
			s.rHead = t.wnodes[w].next
		} else {
			t.wnodes[prev].next = t.wnodes[w].next
		}
		s.rLen--
		t.wnodes[w].next = t.freeW
		t.freeW = w
		t.maybeFree(e)
		return true
	}
	return false
}
