package core

import "portals3/internal/wire"

// RxOp is one incoming message in flight at this library: the result of
// matching a header, handed to the NAL driver so it can move the payload,
// then handed back (Delivered / ReplySent) so the library can post events
// and apply unlink rules. This split mirrors the real generic-mode flow:
// the host matches the header, tells the firmware where to put the data,
// and finishes the Portals bookkeeping when the firmware reports
// completion (paper §4.3).
type RxOp struct {
	Hdr    wire.Header
	Drop   bool
	Reason DropReason

	// Delivery target (put/reply) or source (get) within the matched MD.
	Region Region
	Off    int
	MLen   int // manipulated length: bytes to actually move
	RLen   int // requested length from the header

	// Walked counts match entries examined, so the driver can charge
	// per-entry matching cost on whichever processor ran the walk.
	Walked int

	// Reply is the response the driver must transmit (get requests only).
	Reply *SendReq

	m         *md
	evEnd     EventType
	ackNeeded bool
}

// initiator extracts the sender's process id from a header.
func initiator(h *wire.Header) ProcessID {
	return ProcessID{Nid: h.SrcNid, Pid: h.SrcPid}
}

// newRxOp takes a receive operation from the pool, reset and primed with
// the header.
func (l *Lib) newRxOp(hdr *wire.Header) *RxOp {
	op := l.opPool.Get()
	*op = RxOp{Hdr: *hdr, RLen: int(hdr.Length)}
	return op
}

// freeRxOp recycles an operation after its terminal call. The struct is
// reset on reuse, not here, so callers may still read fields they extracted.
func (l *Lib) freeRxOp(op *RxOp) {
	l.opPool.Put(op)
}

// newSendReq takes a zeroed send request from the pool.
func (l *Lib) newSendReq() *SendReq { return l.reqPool.Get() }

// FreeSendReq returns a send request to the pool. Drivers call it for
// requests with no library completion (gets, acks, and replies after
// ReplySent) once the transmit command has been built; requests that end in
// SendDone are recycled there. Backends that keep requests alive past those
// points (the reference NAL's deferred delivery) simply never call it.
func (l *Lib) FreeSendReq(r *SendReq) {
	*r = SendReq{}
	l.reqPool.Put(r)
}

// ---- Initiator-side operations ----

// Put transmits the descriptor's entire memory to the target (PtlPut).
func (l *Lib) Put(mdh MDHandle, ack AckReq, target ProcessID, ptl int,
	matchBits uint64, remoteOffset int, hdrData uint64) error {
	m, ok := l.mds.get(uint32(mdh))
	if !ok || m.dead {
		return ErrInvalidHandle
	}
	return l.PutRegion(mdh, 0, m.desc.Region.Len(), ack, target, ptl, matchBits, remoteOffset, hdrData)
}

// PutRegion transmits length bytes starting at localOffset (PtlPutRegion).
func (l *Lib) PutRegion(mdh MDHandle, localOffset, length int, ack AckReq,
	target ProcessID, ptl int, matchBits uint64, remoteOffset int, hdrData uint64) error {
	m, ok := l.mds.get(uint32(mdh))
	if !ok || m.dead {
		return ErrInvalidHandle
	}
	if !m.active() {
		return ErrMDInUse
	}
	if localOffset < 0 || length < 0 || localOffset+length > m.desc.Region.Len() {
		return ErrSegv
	}
	if target.Nid == NidAny || target.Pid == PidAny {
		return ErrProcessInvalid
	}
	if remoteOffset < 0 {
		return ErrInvalidArg
	}
	m.consume()
	m.inflight++
	ackReq := uint8(0)
	if ack == Ack {
		ackReq = 1
	}
	hdr := wire.Header{
		Type:      wire.TypePut,
		PtlIndex:  uint8(ptl),
		AckReq:    ackReq,
		SrcNid:    l.id.Nid,
		SrcPid:    l.id.Pid,
		DstNid:    target.Nid,
		DstPid:    target.Pid,
		MatchBits: matchBits,
		Length:    uint32(length),
		Offset:    uint32(remoteOffset),
		MDHandle:  uint32(mdh),
		UID:       l.uid,
		HdrData:   hdrData,
	}
	if q := l.eqFor(m.desc.EQ); q != nil && m.desc.Options&MDEventStartDisable == 0 {
		q.post(Event{Type: EventSendStart, Initiator: l.id, UID: l.uid, PtlIndex: ptl,
			MatchBits: matchBits, RLength: length, MLength: length, Offset: localOffset,
			MD: mdh, User: m.desc.User, HdrData: hdrData})
	}
	l.status[SRSendCount]++
	l.status[SRSendLength] += uint64(length)
	r := l.newSendReq()
	r.Hdr = hdr
	r.Region = m.desc.Region
	r.Off = localOffset
	r.Len = length
	r.MD = mdh
	l.backend.Send(r)
	return nil
}

// Get requests the target's matched memory into this descriptor (PtlGet).
func (l *Lib) Get(mdh MDHandle, target ProcessID, ptl int, matchBits uint64, remoteOffset int) error {
	m, ok := l.mds.get(uint32(mdh))
	if !ok || m.dead {
		return ErrInvalidHandle
	}
	return l.GetRegion(mdh, 0, m.desc.Region.Len(), target, ptl, matchBits, remoteOffset)
}

// GetRegion requests length bytes into the descriptor at localOffset
// (PtlGetRegion). The requested local offset rides the wire in the header's
// HdrData field — gets carry no user header data in Portals 3.3, so the
// field is free — and is echoed back in the reply so the initiator-side
// delivery lands at the right place.
func (l *Lib) GetRegion(mdh MDHandle, localOffset, length int, target ProcessID,
	ptl int, matchBits uint64, remoteOffset int) error {
	m, ok := l.mds.get(uint32(mdh))
	if !ok || m.dead {
		return ErrInvalidHandle
	}
	if !m.active() {
		return ErrMDInUse
	}
	if localOffset < 0 || length < 0 || localOffset+length > m.desc.Region.Len() {
		return ErrSegv
	}
	if target.Nid == NidAny || target.Pid == PidAny {
		return ErrProcessInvalid
	}
	m.consume()
	m.inflight++
	hdr := wire.Header{
		Type:      wire.TypeGet,
		PtlIndex:  uint8(ptl),
		SrcNid:    l.id.Nid,
		SrcPid:    l.id.Pid,
		DstNid:    target.Nid,
		DstPid:    target.Pid,
		MatchBits: matchBits,
		Length:    uint32(length),
		Offset:    uint32(remoteOffset),
		MDHandle:  uint32(mdh),
		UID:       l.uid,
		HdrData:   uint64(localOffset),
	}
	r := l.newSendReq()
	r.Hdr = hdr
	r.MD = mdh
	l.backend.Send(r)
	return nil
}

// SendDone completes the transmit side of a put: the NAL driver calls it
// when the firmware posts the "message transmit complete" event. It posts
// SEND_END, meaning the local buffer is reusable.
func (l *Lib) SendDone(req *SendReq, ok bool) {
	m, alive := l.mds.get(uint32(req.MD))
	if !alive || m.dead {
		return
	}
	m.inflight--
	unlinked := l.maybeAutoUnlink(m)
	if q := l.eqFor(m.desc.EQ); q != nil {
		if m.desc.Options&MDEventEndDisable == 0 {
			q.post(Event{Type: EventSendEnd, Initiator: l.id, UID: l.uid,
				PtlIndex: int(req.Hdr.PtlIndex), MatchBits: req.Hdr.MatchBits,
				RLength: req.Len, MLength: req.Len, Offset: req.Off,
				MD: req.MD, User: m.desc.User, HdrData: req.Hdr.HdrData, NIFail: !ok, Unlinked: unlinked})
		} else if unlinked {
			q.post(Event{Type: EventUnlink, Initiator: l.id, MD: req.MD, User: m.desc.User})
		}
	}
	l.FreeSendReq(req)
}

// ---- Target-side operations ----

// matchWalk finds the first match entry on ptl accepting (bits, src) whose
// memory descriptor can participate. Entries with no descriptor or an
// inactive one (threshold exhausted or zero) are skipped, as the
// specification requires — upper layers depend on this: MPI's race-free
// posted-receive protocol arms a threshold-0 descriptor and activates it
// with a conditional MDUpdate, relying on inactive entries being invisible
// to matching. skipped reports the drop reason of the last skipped
// candidate so diagnostics can distinguish "nothing matched" from
// "matched something exhausted".
func (l *Lib) matchWalk(ptl int, bits uint64, src ProcessID) (e *me, walked int, skipped DropReason) {
	skipped = DropNoMatch
	for e := l.ptable[ptl].head; e != nil; e = e.next {
		walked++
		if !e.matches(bits, src) {
			continue
		}
		if e.md == nil {
			skipped = DropNoMD
			continue
		}
		if !e.md.active() {
			skipped = DropThreshold
			continue
		}
		return e, walked, skipped
	}
	return nil, walked, skipped
}

// receiveTarget performs the target-side checks shared by puts and gets.
func (l *Lib) receiveTarget(hdr *wire.Header, needOp MDOptions) *RxOp {
	op := l.newRxOp(hdr)
	src := initiator(hdr)
	ptl := int(hdr.PtlIndex)
	reject := func(r DropReason) *RxOp {
		op.Drop = true
		op.Reason = r
		l.drop(r)
		return op
	}
	if ptl < 0 || ptl >= len(l.ptable) {
		return reject(DropNoPtlEntry)
	}
	if !l.aclPermits(hdr.UID, src, ptl) {
		return reject(DropACDenied)
	}
	e, walked, skipped := l.matchWalk(ptl, hdr.MatchBits, src)
	op.Walked = walked
	if e == nil {
		return reject(skipped)
	}
	m := e.md
	if m.desc.Options&needOp == 0 {
		return reject(DropWrongOp)
	}
	offset := m.localOffset
	if m.desc.Options&MDManageRemote != 0 {
		offset = int(hdr.Offset)
	}
	avail := m.avail(offset)
	mlen := op.RLen
	if mlen > avail {
		if m.desc.Options&MDTruncate == 0 {
			return reject(DropNoFit)
		}
		mlen = avail
	}
	m.consume()
	m.inflight++
	if m.desc.Options&MDManageRemote == 0 {
		m.localOffset += mlen
	}
	op.Region = m.desc.Region
	op.Off = offset
	op.MLen = mlen
	op.m = m
	return op
}

// postStart posts the *_START event for an accepted incoming operation.
func (l *Lib) postStart(op *RxOp, t EventType) {
	m := op.m
	if q := l.eqFor(m.desc.EQ); q != nil && m.desc.Options&MDEventStartDisable == 0 {
		q.post(Event{Type: t, Initiator: initiator(&op.Hdr), UID: op.Hdr.UID,
			PtlIndex: int(op.Hdr.PtlIndex), MatchBits: op.Hdr.MatchBits,
			RLength: op.RLen, MLength: op.MLen, Offset: op.Off,
			MD: m.handle, User: m.desc.User, HdrData: op.Hdr.HdrData})
	}
}

// ReceivePut processes an incoming put header: ACL check, match walk,
// descriptor checks, offset and truncation management. On acceptance the
// driver deposits op.MLen bytes at op.Region/op.Off and calls Delivered; on
// op.Drop it discards the payload and calls nothing.
func (l *Lib) ReceivePut(hdr *wire.Header) *RxOp {
	op := l.receiveTarget(hdr, MDOpPut)
	if op.Drop {
		return op
	}
	op.evEnd = EventPutEnd
	op.ackNeeded = hdr.AckReq != 0 && op.m.desc.Options&MDAckDisable == 0
	l.postStart(op, EventPutStart)
	return op
}

// ReceiveGet processes an incoming get request. On acceptance, op.Reply
// describes the reply message the driver must transmit (reading op.MLen
// bytes from op.Region at op.Off); the driver calls ReplySent when the
// reply transmission completes.
func (l *Lib) ReceiveGet(hdr *wire.Header) *RxOp {
	op := l.receiveTarget(hdr, MDOpGet)
	if op.Drop {
		return op
	}
	op.evEnd = EventGetEnd
	l.postStart(op, EventGetStart)
	r := l.newSendReq()
	r.Hdr = wire.Header{
		Type:      wire.TypeReply,
		SrcNid:    l.id.Nid,
		SrcPid:    l.id.Pid,
		DstNid:    hdr.SrcNid,
		DstPid:    hdr.SrcPid,
		PtlIndex:  hdr.PtlIndex,
		MatchBits: hdr.MatchBits,
		Length:    uint32(op.MLen),
		Offset:    uint32(op.Off),
		MDHandle:  hdr.MDHandle,
		UID:       l.uid,
		HdrData:   hdr.HdrData, // echoes the initiator's local offset
	}
	r.Region = op.Region
	r.Off = op.Off
	r.Len = op.MLen
	r.MD = NoMD
	r.RxOp = op
	op.Reply = r
	l.status[SRSendCount]++
	l.status[SRSendLength] += uint64(op.MLen)
	return op
}

// ReceiveReply processes the reply to one of our gets at the initiator.
// The reply is steered by the MD handle echoed in the header, not by
// matching.
func (l *Lib) ReceiveReply(hdr *wire.Header) *RxOp {
	op := l.newRxOp(hdr)
	m, ok := l.mds.get(uint32(hdr.MDHandle))
	if !ok || m.dead {
		op.Drop = true
		op.Reason = DropBadHandle
		l.drop(DropBadHandle)
		return op
	}
	offset := int(hdr.HdrData) // local offset requested at GetRegion time
	avail := m.avail(offset)
	mlen := op.RLen
	if mlen > avail {
		if m.desc.Options&MDTruncate == 0 {
			op.Drop = true
			op.Reason = DropNoFit
			l.drop(DropNoFit)
			// The get is still outstanding from the md's perspective;
			// release it so the descriptor does not leak inflight count.
			m.inflight--
			return op
		}
		mlen = avail
	}
	op.Region = m.desc.Region
	op.Off = offset
	op.MLen = mlen
	op.m = m
	op.evEnd = EventReplyEnd
	if q := l.eqFor(m.desc.EQ); q != nil && m.desc.Options&MDEventStartDisable == 0 {
		q.post(Event{Type: EventReplyStart, Initiator: initiator(hdr), UID: hdr.UID,
			RLength: op.RLen, MLength: mlen, Offset: offset, MD: m.handle, User: m.desc.User})
	}
	return op
}

// ReceiveAck processes an acknowledgment at the initiator: it posts the ACK
// event to the put descriptor's queue.
func (l *Lib) ReceiveAck(hdr *wire.Header) {
	m, ok := l.mds.get(uint32(hdr.MDHandle))
	if !ok || m.dead {
		l.drop(DropBadHandle)
		return
	}
	if q := l.eqFor(m.desc.EQ); q != nil {
		q.post(Event{Type: EventAck, Initiator: initiator(hdr), UID: hdr.UID,
			PtlIndex: int(hdr.PtlIndex), MatchBits: hdr.MatchBits,
			RLength: int(hdr.Length), MLength: int(hdr.Length), Offset: int(hdr.Offset),
			MD: m.handle, User: m.desc.User})
	}
}

// Delivered completes an accepted put or reply after the driver has moved
// the data. ok=false marks an end-to-end CRC failure: the event carries
// NIFail and the bytes are suspect. For puts that requested one, the
// returned SendReq is the acknowledgment the driver must transmit.
func (l *Lib) Delivered(op *RxOp, ok bool) *SendReq {
	if op.Drop {
		return nil
	}
	m := op.m
	m.inflight--
	unlinked := l.maybeAutoUnlink(m)
	l.status[SRRecvCount]++
	l.status[SRRecvLength] += uint64(op.MLen)
	if !ok {
		l.status[SRCrcErrors]++
	}
	if q := l.eqFor(m.desc.EQ); q != nil {
		if m.desc.Options&MDEventEndDisable == 0 {
			q.post(Event{Type: op.evEnd, Initiator: initiator(&op.Hdr), UID: op.Hdr.UID,
				PtlIndex: int(op.Hdr.PtlIndex), MatchBits: op.Hdr.MatchBits,
				RLength: op.RLen, MLength: op.MLen, Offset: op.Off,
				MD: m.handle, User: m.desc.User, HdrData: op.Hdr.HdrData, NIFail: !ok, Unlinked: unlinked})
		} else if unlinked {
			q.post(Event{Type: EventUnlink, Initiator: initiator(&op.Hdr), MD: m.handle, User: m.desc.User})
		}
	}
	var ack *SendReq
	if op.ackNeeded && ok {
		ack = l.newSendReq()
		ack.Hdr = wire.Header{
			Type:      wire.TypeAck,
			SrcNid:    l.id.Nid,
			SrcPid:    l.id.Pid,
			DstNid:    op.Hdr.SrcNid,
			DstPid:    op.Hdr.SrcPid,
			PtlIndex:  op.Hdr.PtlIndex,
			MatchBits: op.Hdr.MatchBits,
			Length:    uint32(op.MLen),
			Offset:    uint32(op.Off),
			MDHandle:  op.Hdr.MDHandle,
			UID:       l.uid,
		}
		ack.MD = NoMD
	}
	l.freeRxOp(op)
	return ack
}

// ReplySent completes the target side of a get once the reply transmission
// finishes: it posts GET_END and applies unlink rules.
func (l *Lib) ReplySent(op *RxOp) {
	if op.Drop {
		return
	}
	m := op.m
	m.inflight--
	unlinked := l.maybeAutoUnlink(m)
	l.status[SRRecvCount]++
	if q := l.eqFor(m.desc.EQ); q != nil {
		if m.desc.Options&MDEventEndDisable == 0 {
			q.post(Event{Type: EventGetEnd, Initiator: initiator(&op.Hdr), UID: op.Hdr.UID,
				PtlIndex: int(op.Hdr.PtlIndex), MatchBits: op.Hdr.MatchBits,
				RLength: op.RLen, MLength: op.MLen, Offset: op.Off,
				MD: m.handle, User: m.desc.User, Unlinked: unlinked})
		} else if unlinked {
			q.post(Event{Type: EventUnlink, Initiator: initiator(&op.Hdr), MD: m.handle, User: m.desc.User})
		}
	}
	l.freeRxOp(op)
}

// Receive dispatches an incoming header to the appropriate handler; it is
// the single entry point NAL drivers use.
func (l *Lib) Receive(hdr *wire.Header) *RxOp {
	switch hdr.Type {
	case wire.TypePut:
		return l.ReceivePut(hdr)
	case wire.TypeGet:
		return l.ReceiveGet(hdr)
	case wire.TypeReply:
		return l.ReceiveReply(hdr)
	case wire.TypeAck:
		l.ReceiveAck(hdr)
		return nil
	}
	op := &RxOp{Hdr: *hdr, Drop: true, Reason: DropNoMatch}
	l.drop(DropNoMatch)
	return op
}
