package overlay

import "fmt"

// Ref is a generation-stamped peer reference. Holding a Ref across
// rounds is safe: if the slot's occupant dies and is replaced, the
// generation no longer matches and the Ref is detectably stale.
type Ref struct {
	ID  PeerID
	Gen uint32
}

// NoRef is the invalid reference.
var NoRef = Ref{ID: NoPeer}

// String renders the reference.
func (r Ref) String() string { return fmt.Sprintf("peer(%d@%d)", r.ID, r.Gen) }

// Table tracks slot generations for a fixed-size population.
type Table struct {
	gens []uint32
}

// NewTable returns a table with n slots, all at generation 0.
func NewTable(n int) *Table {
	if n <= 0 {
		panic(fmt.Sprintf("overlay: invalid table size %d", n))
	}
	return &Table{gens: make([]uint32, n)}
}

// Len returns the slot count.
func (t *Table) Len() int { return len(t.gens) }

// Ref returns the current reference for a slot.
func (t *Table) Ref(id PeerID) Ref {
	if id < 0 || int(id) >= len(t.gens) {
		return NoRef
	}
	return Ref{ID: id, Gen: t.gens[id]}
}

// Current reports whether ref still points at the same occupant.
func (t *Table) Current(ref Ref) bool {
	if ref.ID < 0 || int(ref.ID) >= len(t.gens) {
		return false
	}
	return t.gens[ref.ID] == ref.Gen
}

// Bump invalidates all outstanding references to the slot (occupant
// replaced) and returns the new generation.
func (t *Table) Bump(id PeerID) uint32 {
	if id < 0 || int(id) >= len(t.gens) {
		panic(fmt.Sprintf("overlay: Bump(%d) out of range", id))
	}
	t.gens[id]++
	return t.gens[id]
}

// Gen returns the slot's current generation.
func (t *Table) Gen(id PeerID) uint32 {
	if id < 0 || int(id) >= len(t.gens) {
		return 0
	}
	return t.gens[id]
}
