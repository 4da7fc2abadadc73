// Package cp seeds single-home violations against the shapes of the real
// CP spilled-condition table (same type and field names).
package cp

type condKey struct {
	addr int64
	want int64
}

// addrChain has the real per-address condition chain's protected ends.
type addrChain struct{ head, tail int32 }

// spillTable has the real slab table's protected counters.
type spillTable struct {
	waiters  int
	condLive int
}

// dropWaiters is one of the table's own accessors.
func (t *spillTable) dropWaiters(a int64, buf []int) ([]int, bool) {
	t.waiters--
	t.condLive--
	return buf, true
}

// unchain is the table's chain accessor: moving the ends is sanctioned.
func (t *spillTable) unchain(c *addrChain) {
	c.head, c.tail = -1, -1
}

// Processor has the real firmware model's protected fields.
type Processor struct {
	tab     spillTable
	order   []int64
	maxTab  int
	wakeBuf []int
}

func New() *Processor {
	return &Processor{}
}

// unlist is an approved transfer function: splicing here is sanctioned.
func (p *Processor) unlist(a int64) {
	for i, o := range p.order {
		if o == a {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}

// checkPass is not approved to splice the walk order or touch the table
// directly — it must route removals through the table and unlist.
func (p *Processor) checkPass(met func(int64) bool, c *addrChain) {
	p.maxTab++ // not waiter state
	for i, a := range p.order {
		if met(a) {
			p.order = append(p.order[:i], p.order[i+1:]...) // want `Processor\.order holds single-home waiter state`
			p.tab.waiters--                                 // want `spillTable\.waiters holds single-home waiter state`
			p.wakeBuf = append(p.wakeBuf, 0)                // want `Processor\.wakeBuf holds single-home waiter state`
			c.head = -1                                     // want `addrChain\.head holds single-home waiter state`
			break
		}
	}
}

// Restore is the approved whole-home rewind: every container is rewritten
// from one snapshot image, so no waiter can end up split across homes.
func (p *Processor) Restore(order []int64, tab spillTable) {
	p.order = append(p.order[:0], order...) // approved: Restore is a transfer function
	p.tab = tab                             // approved: Restore is a transfer function
}

// rewind is NOT an approved name: snapshot-style rewrites must live in the
// named snapshot layer, not be scattered under ad-hoc names.
func (p *Processor) rewind(order []int64) {
	p.order = order // want `Processor\.order holds single-home waiter state`
}
