package obs

// ringChunk is the number of slots per ring chunk: 64 KiB of events or
// 344 KiB of decisions, both whole multiples of the allocator's 8 KiB
// page, so a chunk wastes no rounding.
const (
	ringChunkShift = 10
	ringChunk      = 1 << ringChunkShift
)

// ring is a fixed-capacity ring buffer that keeps the most recent cap
// writes. Its storage is a table of fixed power-of-two chunks, each
// allocated the first time one of its slots is written: a short run
// pays for the slots it uses, a run that fills the ring pays exactly
// its capacity, and no write ever copies earlier ones.
type ring[T any] struct {
	chunks [][]T
	cap    int
	w      int // next slot to write
	n      int // total writes, including those since overwritten
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{chunks: make([][]T, (capacity+ringChunk-1)/ringChunk), cap: capacity}
}

// next returns the slot for the next write, allocating its chunk on
// first use. A reused slot still holds the write it replaces.
func (b *ring[T]) next() *T {
	i := b.w
	if b.w++; b.w == b.cap {
		b.w = 0
	}
	b.n++
	c := b.chunks[i>>ringChunkShift]
	if c == nil {
		c = make([]T, min(ringChunk, b.cap-i&^(ringChunk-1)))
		b.chunks[i>>ringChunkShift] = c
	}
	return &c[i&(ringChunk-1)]
}

// each visits the retained writes oldest to newest.
func (b *ring[T]) each(fn func(*T)) {
	held := min(b.n, b.cap)
	i := b.w - held
	if i < 0 {
		i += b.cap
	}
	for ; held > 0; held-- {
		fn(&b.chunks[i>>ringChunkShift][i&(ringChunk-1)])
		if i++; i == b.cap {
			i = 0
		}
	}
}
