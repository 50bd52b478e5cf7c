package core

// me is a match entry: one node of a portal index's match list. Incoming
// message headers are compared against entries in list order; the first
// entry whose match bits and source id accept the header receives the
// operation (paper §3: "the ultimate destination of a message is determined
// at the receiving process by comparing contents of the incoming message
// header with the contents of Portals structures at the destination").
type me struct {
	handle     MEHandle
	ptl        int
	matchID    ProcessID
	matchBits  uint64
	ignoreBits uint64
	unlink     Unlink

	md *md // attached descriptor, nil when bare

	prev, next *me
	entry      *ptlEntry
	unlinked   bool
}

// newME takes an entry from the pool, reset and initialized. Entries return
// to the pool in removeME; handles are generation-checked by the slot
// table, so a recycled entry's old handles resolve to nothing.
func (l *Lib) newME(ptl int, matchID ProcessID, matchBits, ignoreBits uint64, unlink Unlink) *me {
	e := l.mePool.Get()
	*e = me{ptl: ptl, matchID: matchID, matchBits: matchBits, ignoreBits: ignoreBits, unlink: unlink}
	return e
}

// matches implements the Portals matching rule: all header match bits not
// masked by ignoreBits must equal the entry's matchBits, and the sender must
// satisfy the (possibly wildcarded) source id.
func (e *me) matches(bits uint64, src ProcessID) bool {
	return (bits^e.matchBits)&^e.ignoreBits == 0 && e.matchID.Matches(src)
}

// MEAttach creates a match entry at the tail (After) or head (Before) of
// portal index ptl's match list (PtlMEAttach).
func (l *Lib) MEAttach(ptl int, matchID ProcessID, matchBits, ignoreBits uint64,
	unlink Unlink, pos Position) (MEHandle, error) {
	if ptl < 0 || ptl >= len(l.ptable) {
		return MEHandle(InvalidHandle), ErrPtIndexInvalid
	}
	entry := &l.ptable[ptl]
	if entry.count >= l.limits.MaxMEList {
		return MEHandle(InvalidHandle), ErrMEListTooLong
	}
	e := l.newME(ptl, matchID, matchBits, ignoreBits, unlink)
	h, err := l.mes.alloc(e)
	if err != nil {
		return MEHandle(InvalidHandle), err
	}
	e.handle = MEHandle(h)
	e.entry = entry
	if pos == Before {
		e.next = entry.head
		if entry.head != nil {
			entry.head.prev = e
		}
		entry.head = e
		if entry.tail == nil {
			entry.tail = e
		}
	} else {
		e.prev = entry.tail
		if entry.tail != nil {
			entry.tail.next = e
		}
		entry.tail = e
		if entry.head == nil {
			entry.head = e
		}
	}
	entry.count++
	return e.handle, nil
}

// MEAttachAny creates a match entry on the first unused portal index and
// returns the index with the handle (PtlMEAttachAny) — how upper layers
// claim a private portal without coordinating index assignments.
func (l *Lib) MEAttachAny(matchID ProcessID, matchBits, ignoreBits uint64,
	unlink Unlink, pos Position) (int, MEHandle, error) {
	for ptl := range l.ptable {
		if l.ptable[ptl].count != 0 {
			continue
		}
		h, err := l.MEAttach(ptl, matchID, matchBits, ignoreBits, unlink, pos)
		return ptl, h, err
	}
	return -1, MEHandle(InvalidHandle), ErrPtIndexInvalid
}

// MEInsert creates a match entry adjacent to an existing one (PtlMEInsert):
// pos Before places it ahead of base in match order, After places it behind.
func (l *Lib) MEInsert(base MEHandle, matchID ProcessID, matchBits, ignoreBits uint64,
	unlink Unlink, pos Position) (MEHandle, error) {
	b, ok := l.mes.get(uint32(base))
	if !ok || b.unlinked {
		return MEHandle(InvalidHandle), ErrInvalidHandle
	}
	entry := b.entry
	if entry.count >= l.limits.MaxMEList {
		return MEHandle(InvalidHandle), ErrMEListTooLong
	}
	e := l.newME(b.ptl, matchID, matchBits, ignoreBits, unlink)
	h, err := l.mes.alloc(e)
	if err != nil {
		return MEHandle(InvalidHandle), err
	}
	e.handle = MEHandle(h)
	e.entry = entry
	if pos == Before {
		e.prev = b.prev
		e.next = b
		if b.prev != nil {
			b.prev.next = e
		} else {
			entry.head = e
		}
		b.prev = e
	} else {
		e.next = b.next
		e.prev = b
		if b.next != nil {
			b.next.prev = e
		} else {
			entry.tail = e
		}
		b.next = e
	}
	entry.count++
	return e.handle, nil
}

// MEUnlink removes a match entry from its list (PtlMEUnlink). An attached
// memory descriptor is unlinked with it, per the specification, unless it
// has operations in flight (ErrMEInUse).
func (l *Lib) MEUnlink(h MEHandle) error {
	e, ok := l.mes.get(uint32(h))
	if !ok || e.unlinked {
		return ErrInvalidHandle
	}
	if e.md != nil && e.md.inflight > 0 {
		return ErrMEInUse
	}
	if e.md != nil {
		l.destroyMD(e.md)
	}
	l.removeME(e)
	return nil
}

// removeME unlinks the entry from its list and releases its handle.
func (l *Lib) removeME(e *me) {
	if e.unlinked {
		return
	}
	entry := e.entry
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		entry.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		entry.tail = e.prev
	}
	entry.count--
	e.unlinked = true
	e.md = nil
	l.mes.release(uint32(e.handle))
	l.mePool.Put(e)
}

// MEList returns the handles on portal index ptl in match order, a
// diagnostic used by tests and tools.
func (l *Lib) MEList(ptl int) ([]MEHandle, error) {
	if ptl < 0 || ptl >= len(l.ptable) {
		return nil, ErrPtIndexInvalid
	}
	var out []MEHandle
	for e := l.ptable[ptl].head; e != nil; e = e.next {
		out = append(out, e.handle)
	}
	return out, nil
}
