// Package cp seeds single-home violations against the shapes of the real
// CP spilled-condition table (same type and field names).
package cp

type condKey struct {
	addr int64
	want int64
}

// spillTable has the real slab table's protected counters.
type spillTable struct {
	waiters  int
	condLive int
}

// dropWaiters is one of the table's own accessors.
func (t *spillTable) dropWaiters(k condKey, buf []int) []int {
	t.waiters--
	t.condLive--
	return buf
}

// Processor has the real firmware model's protected fields.
type Processor struct {
	tab     spillTable
	order   []condKey
	rotate  int
	wakeBuf []int
}

func New() *Processor {
	return &Processor{}
}

// dropCond is an approved transfer function: splicing here is sanctioned.
func (p *Processor) dropCond(k condKey) []int {
	p.wakeBuf = p.tab.dropWaiters(k, p.wakeBuf[:0])
	for i, o := range p.order {
		if o == k {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	return p.wakeBuf
}

// checkPass is not approved to splice the walk order or touch the table
// directly — it must route removals through dropCond.
func (p *Processor) checkPass(met func(condKey) bool) {
	p.rotate++ // not waiter state
	for i, k := range p.order {
		if met(k) {
			p.order = append(p.order[:i], p.order[i+1:]...) // want `Processor\.order holds single-home waiter state`
			p.tab.waiters--                                 // want `spillTable\.waiters holds single-home waiter state`
			p.wakeBuf = append(p.wakeBuf, 0)                // want `Processor\.wakeBuf holds single-home waiter state`
			break
		}
	}
}

// Restore is the approved whole-home rewind: every container is rewritten
// from one snapshot image, so no waiter can end up split across homes.
func (p *Processor) Restore(order []condKey, tab spillTable) {
	p.order = append(p.order[:0], order...) // approved: Restore is a transfer function
	p.tab = tab                             // approved: Restore is a transfer function
}

// rewind is NOT an approved name: snapshot-style rewrites must live in the
// named snapshot layer, not be scattered under ad-hoc names.
func (p *Processor) rewind(order []condKey) {
	p.order = order // want `Processor\.order holds single-home waiter state`
}
