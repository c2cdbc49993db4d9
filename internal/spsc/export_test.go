package spsc

// Len returns the number of buffered elements. It is exact only when the
// queue is quiescent; under concurrency it is a point-in-time snapshot,
// safe to call from any goroutine.
//
// head is loaded before tail: head never passes tail, so a tail read
// *after* the head read is always >= the head value read, keeping the
// difference non-negative (the reverse order could go negative when the
// consumer advances between the two loads). The result is clamped to the
// capacity because the consumer may also advance head after we read it,
// inflating the stale difference.
func (q *Queue[T]) Len() int {
	h := q.head.Load()
	t := q.tail.Load()
	n := t - h
	if n > uint64(len(q.buf)) {
		n = uint64(len(q.buf))
	}
	return int(n)
}
