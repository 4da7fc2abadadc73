package hashutil

// Flat is a deterministic open-addressed hash map with linear probing and
// backward-shift deletion. It is the indexing half of the simulator's
// data-oriented hot state: the SyncMon condition cache, the CP spill table
// and the memory page directory all keep their payloads in slabs and use a
// Flat to find slots by key, replacing Go maps on the bank-service path
// (no per-entry allocation, no hashing seed randomization, no iteration —
// so no order can leak into simulated behavior).
//
// The caller supplies the hash function at construction; equality is the
// key type's ==. Pointers returned by Ref/Put are invalidated by the next
// Put or Delete (the table may grow or shift slots).
type Flat[K comparable, V any] struct {
	hash func(K) uint64
	keys []K
	vals []V
	used []bool
	mask uint64
	live int
}

// NewFlat builds a table with capacity for at least hint entries before the
// first growth. hash must be deterministic across processes (no map-seed or
// pointer inputs) — simulated state depends on nothing but the op sequence.
func NewFlat[K comparable, V any](hint int, hash func(K) uint64) *Flat[K, V] {
	n := 8
	for n*3 < hint*4 { // keep load factor under 3/4 for the hint
		n *= 2
	}
	return &Flat[K, V]{
		hash: hash,
		keys: make([]K, n),
		vals: make([]V, n),
		used: make([]bool, n),
		mask: uint64(n - 1),
	}
}

// Len reports the number of live entries.
func (f *Flat[K, V]) Len() int { return f.live }

// Ref returns a pointer to k's value, or nil when absent. The pointer is
// valid only until the next Put or Delete.
func (f *Flat[K, V]) Ref(k K) *V {
	i := f.hash(k) & f.mask
	for f.used[i] {
		if f.keys[i] == k {
			return &f.vals[i]
		}
		i = (i + 1) & f.mask
	}
	return nil
}

// Put returns a pointer to k's value, inserting a zero value first when k
// is absent. The pointer is valid only until the next Put or Delete.
func (f *Flat[K, V]) Put(k K) *V {
	if (f.live+1)*4 > len(f.keys)*3 {
		f.grow()
	}
	i := f.hash(k) & f.mask
	for f.used[i] {
		if f.keys[i] == k {
			return &f.vals[i]
		}
		i = (i + 1) & f.mask
	}
	f.used[i] = true
	f.keys[i] = k
	f.live++
	return &f.vals[i]
}

// Delete removes k, reporting whether it was present. Deletion backward-
// shifts the following probe cluster so no tombstones accumulate: lookup
// cost stays bounded by the load factor no matter how the key set churns.
func (f *Flat[K, V]) Delete(k K) bool {
	i := f.hash(k) & f.mask
	for f.used[i] {
		if f.keys[i] == k {
			f.backshift(i)
			f.live--
			return true
		}
		i = (i + 1) & f.mask
	}
	return false
}

// backshift vacates slot i, sliding later cluster members down when their
// home position permits (the classical linear-probing deletion).
func (f *Flat[K, V]) backshift(i uint64) {
	var zeroK K
	var zeroV V
	j := i
	for {
		j = (j + 1) & f.mask
		if !f.used[j] {
			break
		}
		home := f.hash(f.keys[j]) & f.mask
		// Move j down to i unless that would place it before its home
		// position within the cluster.
		if (j-home)&f.mask >= (j-i)&f.mask {
			f.keys[i], f.vals[i] = f.keys[j], f.vals[j]
			i = j
		}
	}
	f.used[i] = false
	f.keys[i], f.vals[i] = zeroK, zeroV
}

func (f *Flat[K, V]) grow() {
	oldK, oldV, oldU := f.keys, f.vals, f.used
	n := len(oldK) * 2
	f.keys = make([]K, n)
	f.vals = make([]V, n)
	f.used = make([]bool, n)
	f.mask = uint64(n - 1)
	for s, u := range oldU {
		if !u {
			continue
		}
		i := f.hash(oldK[s]) & f.mask
		for f.used[i] {
			i = (i + 1) & f.mask
		}
		f.used[i] = true
		f.keys[i] = oldK[s]
		f.vals[i] = oldV[s]
	}
}

// Clone returns an independent deep copy of the table sharing only the hash
// function. Snapshot/restore uses it: a clone preserves slot positions
// exactly, so a restored table probes identically to the original.
func (f *Flat[K, V]) Clone() *Flat[K, V] {
	return &Flat[K, V]{
		hash: f.hash,
		keys: append([]K(nil), f.keys...),
		vals: append([]V(nil), f.vals...),
		used: append([]bool(nil), f.used...),
		mask: f.mask,
		live: f.live,
	}
}

// CopyFrom overwrites f's contents with src's (typically a Clone taken
// earlier), reusing f's backing arrays when the geometries match so a
// restore does not allocate.
func (f *Flat[K, V]) CopyFrom(src *Flat[K, V]) {
	if len(f.keys) != len(src.keys) {
		f.keys = make([]K, len(src.keys))
		f.vals = make([]V, len(src.vals))
		f.used = make([]bool, len(src.used))
	}
	copy(f.keys, src.keys)
	copy(f.vals, src.vals)
	copy(f.used, src.used)
	f.mask = src.mask
	f.live = src.live
}
