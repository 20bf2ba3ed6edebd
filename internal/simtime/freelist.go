package simtime

// FreeList recycles records of one type. Like everything an event callback
// touches, it belongs to the scheduler's goroutine, so it is a plain slice.
// A site binds a fresh record's back-pointer and method values once, and
// resets a record before Put, so a record on the list pins nothing.
// Counts reports how many records the list made and how many are idle on
// it: with nothing in flight the two are equal.
type FreeList[T any] struct {
	free []*T
	made int
}

// Get returns a record off the list, or a new one with fresh set.
func (l *FreeList[T]) Get() (x *T, fresh bool) {
	if n := len(l.free); n > 0 {
		x = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return x, false
	}
	l.made++
	return new(T), true
}

// Put gives back a record its site has reset.
func (l *FreeList[T]) Put(x *T) { l.free = append(l.free, x) }

// Counts returns the number of records the list made and the number idle.
func (l *FreeList[T]) Counts() (made, idle int) { return l.made, len(l.free) }
