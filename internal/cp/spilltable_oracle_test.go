package cp

import (
	"testing"

	"awgsim/internal/gpu"
	"awgsim/internal/mem"
)

// spillModel mirrors spillTable semantics with Go maps: waiter FIFOs,
// tombstone sets (order-free membership), and per-address lists of the
// in-table conditions in the order they entered the table.
type spillModel struct {
	waiters map[condKey][]gpu.WGID
	tombs   map[condKey][]gpu.WGID
	chains  map[mem.Addr][]condKey
}

// unchain removes k from its address's list, reporting whether the
// address has no condition left.
func (m *spillModel) unchain(k condKey) bool {
	ch := m.chains[k.addr]
	for i, o := range ch {
		if o == k {
			ch = append(ch[:i], ch[i+1:]...)
			break
		}
	}
	if len(ch) == 0 {
		delete(m.chains, k.addr)
		return true
	}
	m.chains[k.addr] = ch
	return false
}

// keyspace enumerates the finite condition space the test drives, in a
// fixed order (4 addresses x 3 wants x 2 cmps).
func keyspace() []condKey {
	var ks []condKey
	for a := mem.Addr(0); a < 4*4; a += 4 {
		for w := int64(0); w < 3; w++ {
			for c := gpu.Cmp(0); c < 2; c++ {
				ks = append(ks, condKey{addr: a, want: w, cmp: c})
			}
		}
	}
	return ks
}

func (m *spillModel) check(t *testing.T, tab *spillTable, step int) {
	t.Helper()
	total, condLive := 0, 0
	liveAddrs := map[mem.Addr]bool{}
	for _, k := range keyspace() {
		ws := m.waiters[k]
		total += len(ws)
		if len(ws) > 0 {
			condLive++
			liveAddrs[k.addr] = true
		}
		// dropWaiters is the only reader of waiter order; probing it would
		// mutate, so diff the FIFO by walking the slot chain directly.
		if e := tab.lookup(k); e != nilRef {
			if got := tab.ents[e].wLen > 0; got != (len(ws) > 0) {
				t.Fatalf("step %d: cond %+v in table = %v, oracle %v", step, k, got, len(ws) > 0)
			}
			w := tab.ents[e].wHead
			for i, want := range ws {
				if w == nilRef || tab.wnodes[w].wg != want {
					t.Fatalf("step %d: cond %+v waiter[%d] diverges from oracle %v", step, k, i, ws)
				}
				w = tab.wnodes[w].next
			}
			if w != nilRef {
				t.Fatalf("step %d: cond %+v waiter list longer than oracle %v", step, k, ws)
			}
			// Tombstones are a set: same size, every table entry in the model.
			rn := 0
			for r := tab.ents[e].rHead; r != nilRef; r = tab.wnodes[r].next {
				found := false
				for _, tw := range m.tombs[k] {
					if tw == tab.wnodes[r].wg {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("step %d: cond %+v has tombstone %d the oracle lacks", step, k, tab.wnodes[r].wg)
				}
				rn++
			}
			if rn != len(m.tombs[k]) {
				t.Fatalf("step %d: cond %+v has %d tombstones, oracle %d", step, k, rn, len(m.tombs[k]))
			}
		} else if len(ws) > 0 || len(m.tombs[k]) > 0 {
			t.Fatalf("step %d: cond %+v missing from table, oracle ws=%v tombs=%v", step, k, ws, m.tombs[k])
		}
	}
	if tab.waiters != total {
		t.Fatalf("step %d: waiters = %d, oracle %d", step, tab.waiters, total)
	}
	if tab.condLive != condLive {
		t.Fatalf("step %d: condLive = %d, oracle %d", step, tab.condLive, condLive)
	}
	if tab.monitoredAddrs() != len(liveAddrs) {
		t.Fatalf("step %d: monitoredAddrs = %d, oracle %d", step, tab.monitoredAddrs(), len(liveAddrs))
	}
	// Every address's condition chain: entry order, tail, and absence.
	for a := mem.Addr(0); a < 4*4; a += 4 {
		ch := m.chains[a]
		c := tab.addrs.Ref(a)
		if c == nil {
			if len(ch) > 0 {
				t.Fatalf("step %d: addr %d has no chain, oracle %v", step, a, ch)
			}
			continue
		}
		e, last := c.head, nilRef
		for i, k := range ch {
			if e == nilRef || tab.ents[e].key != k {
				t.Fatalf("step %d: addr %d chain[%d] diverges from oracle %v", step, a, i, ch)
			}
			e, last = tab.ents[e].anext, e
		}
		if e != nilRef || c.tail != last {
			t.Fatalf("step %d: addr %d chain longer than oracle %v or tail %d != %d", step, a, ch, c.tail, last)
		}
	}
}

// TestSpillTableOracle drives the slab spill table and a map-based oracle
// through a long seeded-random op sequence, diffing waiter order, the
// per-address condition chains, counters, tombstone membership, and every
// returned value at each step. Freelist reuse after drops/consumes is
// exactly what the interleaving stresses.
func TestSpillTableOracle(t *testing.T) {
	ks := keyspace()
	for _, seed := range []uint64{1, 0x5eed, 0xdecafbad} {
		tab := newSpillTable()
		m := spillModel{waiters: map[condKey][]gpu.WGID{}, tombs: map[condKey][]gpu.WGID{}, chains: map[mem.Addr][]condKey{}}
		rng := seed
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		for step := 0; step < 4000; step++ {
			k := ks[next(len(ks))]
			wg := gpu.WGID(next(8))
			switch next(6) {
			case 0, 1: // addWaiter (weighted: the table needs occupancy)
				wantNew := len(m.chains[k.addr]) == 0
				if len(m.waiters[k]) == 0 {
					m.chains[k.addr] = append(m.chains[k.addr], k)
				}
				if got := tab.addWaiter(k, wg); got != wantNew {
					t.Fatalf("seed %#x step %d: addWaiter(%+v,%d) = %v, oracle %v", seed, step, k, wg, got, wantNew)
				}
				m.waiters[k] = append(m.waiters[k], wg)
			case 2: // removeWaiter (first match)
				want, wantGone := false, false
				for j, w := range m.waiters[k] {
					if w == wg {
						m.waiters[k] = append(m.waiters[k][:j], m.waiters[k][j+1:]...)
						want = true
						if len(m.waiters[k]) == 0 {
							wantGone = m.unchain(k)
						}
						break
					}
				}
				if got, gone := tab.removeWaiter(k, wg); got != want || gone != wantGone {
					t.Fatalf("seed %#x step %d: removeWaiter(%+v,%d) = %v,%v, oracle %v,%v", seed, step, k, wg, got, gone, want, wantGone)
				}
			case 3: // dropWaiters (check-met wake) with a read value: every
				// met condition on the address, in chain order, FIFO within
				v := int64(next(4))
				var want []wakeRef
				had := len(m.chains[k.addr]) > 0
				for _, c := range append([]condKey(nil), m.chains[k.addr]...) {
					if !c.cmp.Test(v, c.want) {
						continue
					}
					for _, w := range m.waiters[c] {
						want = append(want, wakeRef{w, c.want})
					}
					delete(m.waiters, c)
					m.unchain(c)
				}
				wantGone := had && len(m.chains[k.addr]) == 0
				got, gone := tab.dropWaiters(k.addr, v, nil)
				if len(got) != len(want) || gone != wantGone {
					t.Fatalf("seed %#x step %d: dropWaiters(%d,%d) = %v,%v, oracle %v,%v", seed, step, k.addr, v, got, gone, want, wantGone)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %#x step %d: dropWaiters(%d,%d) = %v, oracle %v", seed, step, k.addr, v, got, want)
					}
				}
			case 4: // addTombstone (set semantics)
				tab.addTombstone(k, wg)
				dup := false
				for _, w := range m.tombs[k] {
					if w == wg {
						dup = true
						break
					}
				}
				if !dup {
					m.tombs[k] = append(m.tombs[k], wg)
				}
			case 5: // consumeTombstone
				want := false
				for j, w := range m.tombs[k] {
					if w == wg {
						m.tombs[k] = append(m.tombs[k][:j], m.tombs[k][j+1:]...)
						want = true
						break
					}
				}
				if got := tab.consumeTombstone(k, wg); got != want {
					t.Fatalf("seed %#x step %d: consumeTombstone(%+v,%d) = %v, oracle %v", seed, step, k, wg, got, want)
				}
			}
			if step%37 == 0 || step > 3900 {
				m.check(t, &tab, step)
			}
		}
		m.check(t, &tab, 4000)
	}
}
