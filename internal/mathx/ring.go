package mathx

// Ring is a bounded window over the newest values pushed: once full, each
// Push evicts the oldest. Pop takes the oldest, so an owner that never
// pushes onto a full ring has a bounded FIFO queue. NewRing allocates the
// storage once, so Push, Pop, At and Len allocate nothing. A Ring is not
// safe for concurrent use; each owner guards its rings with its own lock.
type Ring[T any] struct {
	buf  []T
	next int // the slot the next Push writes: the oldest value once full
	n    int
}

// NewRing returns an empty ring holding up to capacity values. It panics
// if capacity is not positive.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic("mathx: NewRing with non-positive capacity")
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v as the newest value, evicting the oldest when full.
func (r *Ring[T]) Push(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
}

// Pop removes and returns the oldest value. It panics if the ring is
// empty.
func (r *Ring[T]) Pop() T {
	v := r.At(0)
	r.n--
	return v
}

// Len returns how many values the ring holds.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i'th held value counting from the oldest (At(0)); the
// newest is At(Len()-1). It panics unless 0 <= i < Len().
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("mathx: Ring index out of range")
	}
	// Until the ring wraps the oldest value sits in slot 0 and next == n;
	// after, it sits in slot next.
	j := r.next - r.n + i
	if j < 0 {
		j += len(r.buf)
	}
	return r.buf[j]
}

// AppendTo appends the held values to dst, oldest first, and returns the
// extended slice.
func (r *Ring[T]) AppendTo(dst []T) []T {
	start := r.next - r.n
	if start < 0 { // wrapped: the oldest values fill the tail of buf
		dst = append(dst, r.buf[start+len(r.buf):]...)
		start = 0
	}
	return append(dst, r.buf[start:r.next]...)
}
