package mpi

import "strconv"

// links is one element's place in one intrusive list: the next element,
// and the links of the previous one (nil at the head). An element that sits
// in several lists at once carries one links field per list.
//
// prev points at links, not at the element, and list.tail does too: unlink
// then rewrites the predecessor's next without asking which field of which
// element holds it, so push and unlink stay small enough to inline at every
// call site with the accessor inlined into them — each compiles to the
// field code a hand-written list would be. (With prev *T, unlink calls the
// accessor through the generic dictionary and is not inlined.)
type links[T any] struct {
	next *T
	prev *links[T]
}

// list is an intrusive doubly-linked list of *T in insertion order. It
// allocates nothing: every operation names, through an accessor such as
// postedAt, the links field of T the list threads. A list's zero value is
// empty, and its address stays valid for as long as it lives (a posted
// receive records the list it sits in).
type list[T any] struct {
	head *T
	tail *links[T]
}

// The accessors, one per list an element can sit in.
func postedAt(r *Request) *links[Request]   { return &r.posted }
func pendingAt(r *Request) *links[Request]  { return &r.pending }
func bySrcAt(e *envelope) *links[envelope]  { return &e.bySrc }
func byCommAt(e *envelope) *links[envelope] { return &e.byComm }

// push appends e, which must not be in the list at already.
func (q *list[T]) push(e *T, at func(*T) *links[T]) {
	l := at(e)
	l.next, l.prev = nil, q.tail
	if q.tail != nil {
		q.tail.next = e
	} else {
		q.head = e
	}
	q.tail = l
}

// unlink removes e, which must be in the list, in O(1).
func (q *list[T]) unlink(e *T, at func(*T) *links[T]) {
	l := at(e)
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		q.head = l.next
	}
	if l.next != nil {
		at(l.next).prev = l.prev
	} else {
		q.tail = l.prev
	}
	*l = links[T]{}
}

// walk visits the elements head to tail and checks the links on the way:
// it stops at, and describes, the first element whose back link is not its
// predecessor, or a tail that is not the last element. It returns "" for
// an intact list. A forward cycle always breaks a back link, so walk ends
// on any list. Validation sweeps run it and keep only their own ordering
// and membership checks in visit.
func (q *list[T]) walk(at func(*T) *links[T], visit func(*T)) (broken string) {
	var prev *links[T]
	for i, e := 0, q.head; e != nil; i, e = i+1, at(e).next {
		if at(e).prev != prev {
			return "broken back link at element " + strconv.Itoa(i)
		}
		visit(e)
		prev = at(e)
	}
	if q.tail != prev {
		return "tail is not the last element"
	}
	return ""
}
