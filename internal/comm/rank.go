package comm

import (
	"fmt"
	"time"

	"repro/internal/netmodel"
)

// Rank is one process of the communicator. Exactly one goroutine owns a
// Rank; its methods must not be called concurrently.
type Rank struct {
	comm  *Comm
	id    int
	clock *netmodel.Clock
	prof  *Profile

	// flows is the concurrent-sender count this rank's node declares to
	// topology congestion pricing for the messages it is about to send:
	// collStart sets it to the communicator's flatFlows, hierarchical
	// algorithms overwrite it with 1 (only leaders inject), and
	// collRegion.done resets it to 0 (point-to-point traffic = lone
	// flow). Owned by the rank goroutine like every other Rank field.
	flows int
}

// ID returns this rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// WorldID returns this rank's index in the original (world) communicator.
// It differs from ID only on ranks obtained from Shrink.
func (r *Rank) WorldID() int { return r.comm.worldIDOf(r.id) }

// WorldIDOf translates any member id of this rank's communicator to the
// original (world) numbering.
func (r *Rank) WorldIDOf(id int) int { return r.comm.worldIDOf(id) }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.size }

// Kill marks this rank dead — in its current communicator and every
// ancestor — wakes all blocked receivers so peers observe the death, and
// unwinds the rank's goroutine. It never returns. Run records the death
// in Stats.Killed and lets the surviving ranks finish; operations that
// wait on the dead rank fail with DeadRankError (WaitErr) or a panicked
// DeadRankError (the blocking calls) once its pre-crash messages are
// drained.
func (r *Rank) Kill() {
	w := r.WorldID()
	r.comm.markDead(r.id)
	if root := r.comm.root; root != nil && root.transport != nil {
		// Distributed run: mark the death in every locally registered
		// communicator and announce it to the peer processes, ordered
		// after everything this rank already sent.
		root.reg.markWorld(w)
		root.transport.NotifyDead(w)
	}
	panic(killPanic{world: w})
}

// Clock exposes the rank's virtual clock, so applications can account
// modeled compute time (e.g. from the hw instruction model) between
// communication phases.
func (r *Rank) Clock() *netmodel.Clock { return r.clock }

// SwapSite labels subsequent MPI operations with a call-site name, the
// way mpiP attributes time to call sites ("" clears the label), and
// returns the label it replaced. Applications label through obs.Regions.
func (r *Rank) SwapSite(site string) (prev string) {
	prev, r.prof.site = r.prof.site, site
	return prev
}

// Site returns the current call-site label.
func (r *Rank) Site() string { return r.prof.site }

// Profile returns the rank's MPI profile (for in-run inspection; Run also
// returns all profiles in Stats).
func (r *Rank) Profile() *Profile { return r.prof }

func (r *Rank) checkPeer(peer int) {
	if peer < 0 || peer >= r.comm.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", peer, r.comm.size))
	}
}

// stampSend prices one outgoing message and advances the sender's clock:
// topology routing (minimal route, per-link congestion, the rank's
// declared flow concurrency) when the model carries a Topology, the flat
// alpha-beta model otherwise. It returns the modeled arrival time and
// the hop count recorded in traces (route links under a topology,
// grid-Manhattan hops otherwise).
func (r *Rank) stampSend(dst int, nbytes int64) (arrival float64, hops int) {
	c := r.comm
	if topo := c.model.Topo; topo != nil {
		flows := r.flows
		if flows < 1 {
			flows = 1
		}
		cost, over, links := topo.PairCost(c.worldIDOf(r.id), c.worldIDOf(dst), int(nbytes), c.model.InjectionFactor, flows)
		return r.clock.SendStampRoute(cost, over), links
	}
	h := c.hops(r.id, dst)
	return r.clock.SendStamp(int(nbytes), h), h
}

// deliver copies the payload into a message (eager-buffered send,
// MPI_Bsend semantics: the caller's buffer is reusable immediately),
// stamps its modeled arrival time, and drops it into the destination
// mailbox. It returns the payload byte count — not the message, which
// belongs to the receiver the moment it is enqueued (the receiver may
// consume and recycle it at any time).
//
// This is also where the fault plane intercepts the wire: a dropped or
// corrupted first copy always ends in a clean delivery one retransmission
// timeout later, so faults cost modeled time but can never lose data or
// deadlock the run. Corruption relies on the non-overtaking mailbox order
// per (source, tag): the damaged copy is enqueued before the clean one,
// so the receiver's CRC check rejects it and the very next matching
// message is the retransmission.
func (r *Rank) deliver(dst, tag int, data []float64, ints []int64) int64 {
	c := r.comm
	if !c.isLocalWorld(c.worldIDOf(dst)) {
		return r.deliverRemote(dst, tag, data, ints)
	}
	if c.directEligible() {
		// Fast path: without CRC framing or a fault plane nothing can
		// reject or reorder the payload, so deliver straight to the
		// destination mailbox — into an already-posted receive's buffers
		// when one matches (one copy, no envelope), or a staged message
		// otherwise. Timing is identical to the staged path: the same
		// SendStamp fixes the arrival, so modeled time cannot depend on
		// whether the receive was posted first.
		nbytes := 8 * int64(len(data)+len(ints))
		sendVT := r.clock.Now()
		arrival, hops := r.stampSend(dst, nbytes)
		c.boxes[dst].deliverOrQueue(c, r.id, tag, data, ints, arrival)
		c.trace(c.worldIDOf(r.id), c.worldIDOf(dst), tag, nbytes, hops, sendVT, arrival, r.prof.site)
		return nbytes
	}
	m := c.getMessage()
	m.src, m.tag = r.id, tag
	m.data = append(m.data[:0], data...)
	m.ints = append(m.ints[:0], ints...)
	nbytes := m.bytes()
	if c.crc {
		m.crc = payloadCRC(m.data, m.ints)
		m.framed = true
	}
	sendVT := r.clock.Now()
	arrival, hops := r.stampSend(dst, nbytes)
	if c.faults != nil {
		act := c.faults.Message(c.worldIDOf(r.id), c.worldIDOf(dst), tag, nbytes, sendVT)
		if act != (FaultAction{}) {
			arrival += act.DelayVT
			rto := act.RetransmitVT
			if rto <= 0 {
				rto = DefaultRetransmitVT
			}
			switch {
			case act.Drop:
				// The first copy is lost on the wire; the receiver only
				// ever sees the retransmission, one timeout later.
				arrival += rto
				c.retransmits.Add(1)
			case act.Corrupt && nbytes > 0:
				bad := c.getMessage()
				bad.src, bad.tag = r.id, tag
				bad.data = append(bad.data[:0], m.data...)
				bad.ints = append(bad.ints[:0], m.ints...)
				bad.crc, bad.framed = m.crc, m.framed
				flipPayloadBit(bad.data, bad.ints, act.FlipBit)
				bad.arrival = arrival
				c.boxes[dst].put(bad)
				arrival += rto
				c.retransmits.Add(1)
			}
		}
	}
	m.arrival = arrival
	c.boxes[dst].put(m)
	c.trace(c.worldIDOf(r.id), c.worldIDOf(dst), tag, nbytes, hops, sendVT, arrival, r.prof.site)
	return nbytes
}

// deliverRemote is deliver for a destination hosted in another process:
// the same eager-send semantics, CRC framing and fault-plane interception
// as the local staged path, but the message ships as a transport frame
// carrying the modeled arrival time instead of landing in a local
// mailbox. The fault plane still acts at the sender — a corrupted first
// copy is shipped as its own frame before the clean retransmission, and
// the transport's per-(src, dst) ordering plays the role of the mailbox's
// non-overtaking queue. Transport.Send only borrows the payload slices,
// so the caller's buffers stay reusable immediately, exactly like a
// buffered local send.
func (r *Rank) deliverRemote(dst, tag int, data []float64, ints []int64) int64 {
	c := r.comm
	t := c.root.transport
	dstWorld := c.worldIDOf(dst)
	nbytes := 8 * int64(len(data)+len(ints))
	var crc uint32
	framed := false
	if c.crc {
		crc = payloadCRC(data, ints)
		framed = true
	}
	sendVT := r.clock.Now()
	arrival, hops := r.stampSend(dst, nbytes)
	if c.faults != nil {
		act := c.faults.Message(c.worldIDOf(r.id), dstWorld, tag, nbytes, sendVT)
		if act != (FaultAction{}) {
			arrival += act.DelayVT
			rto := act.RetransmitVT
			if rto <= 0 {
				rto = DefaultRetransmitVT
			}
			switch {
			case act.Drop:
				// The first copy is lost on the wire; the receiver only
				// ever sees the retransmission, one timeout later.
				arrival += rto
				c.retransmits.Add(1)
			case act.Corrupt && nbytes > 0:
				badData := append([]float64(nil), data...)
				badInts := append([]int64(nil), ints...)
				flipPayloadBit(badData, badInts, act.FlipBit)
				_ = t.Send(dstWorld, &Frame{
					Ctx: c.ctx, Src: r.id, Dst: dst, Tag: tag,
					Data: badData, Ints: badInts,
					SendVT: sendVT, Arrival: arrival,
					CRC: crc, Framed: framed,
				})
				arrival += rto
				c.retransmits.Add(1)
			}
		}
	}
	// A send error means the peer is gone; like an eager send into a dead
	// rank's mailbox it is dropped silently — the death surfaces on the
	// receive side as DeadRankError.
	_ = t.Send(dstWorld, &Frame{
		Ctx: c.ctx, Src: r.id, Dst: dst, Tag: tag,
		Data: data, Ints: ints,
		SendVT: sendVT, Arrival: arrival,
		CRC: crc, Framed: framed,
	})
	c.trace(c.worldIDOf(r.id), dstWorld, tag, nbytes, hops, sendVT, arrival, r.prof.site)
	return nbytes
}

// receive finalizes a matched message: the virtual clock waits for its
// modeled arrival and the modeled wait is reported for profiling.
func (r *Rank) receive(m *message) float64 {
	return r.clock.WaitUntil(m.arrival)
}

// frameOK verifies a message's CRC frame. A failed check counts the
// detection, notifies the fault plane, recycles the damaged frame and
// reports false — the caller loops for the retransmission.
func (r *Rank) frameOK(m *message) bool {
	if !m.framed || payloadCRC(m.data, m.ints) == m.crc {
		return true
	}
	c := r.comm
	c.crcDetected.Add(1)
	if c.faults != nil {
		c.faults.CRCDetected(c.worldIDOf(m.src), c.worldIDOf(r.id), m.tag)
	}
	c.putMessage(m)
	return false
}

// takeChecked blocks for a matching message whose CRC frame verifies,
// discarding damaged frames (their retransmissions follow under the
// non-overtaking order). Waiting on a specific dead sender returns a
// DeadRankError once its queued messages are drained.
func (r *Rank) takeChecked(src, tag int) (*message, error) {
	for {
		m, err := r.comm.boxes[r.id].takeDead(src, tag, r.comm)
		if err != nil {
			return nil, err
		}
		if r.frameOK(m) {
			return m, nil
		}
	}
}

// mustTake is takeChecked for the blocking receive paths, which surface a
// dead sender by unwinding with the typed error.
func (r *Rank) mustTake(src, tag int) *message {
	m, err := r.takeChecked(src, tag)
	if err != nil {
		panic(err)
	}
	return m
}

// Send sends a float64 payload to dst with the given tag. Sends are eager
// and buffered: they never block and the caller's buffer is reusable as
// soon as Send returns.
func (r *Rank) Send(dst, tag int, data []float64) {
	r.checkPeer(dst)
	start := time.Now()
	nbytes := r.deliver(dst, tag, data, nil)
	r.prof.record("MPI_Send", time.Since(start).Seconds(), r.comm.model.Alpha, nbytes)
}

// SendInts sends an int64 payload.
func (r *Rank) SendInts(dst, tag int, ints []int64) {
	r.checkPeer(dst)
	start := time.Now()
	nbytes := r.deliver(dst, tag, nil, ints)
	r.prof.record("MPI_Send", time.Since(start).Seconds(), r.comm.model.Alpha, nbytes)
}

// SendMsg sends a mixed payload of floats and ints in one message.
func (r *Rank) SendMsg(dst, tag int, data []float64, ints []int64) {
	r.checkPeer(dst)
	start := time.Now()
	nbytes := r.deliver(dst, tag, data, ints)
	r.prof.record("MPI_Send", time.Since(start).Seconds(), r.comm.model.Alpha, nbytes)
}

// IsendMsg starts a nonblocking send of a mixed float/int payload and
// discards the request — sends are eager, so the request of an Isend is
// complete the moment it is created and waiting on it is free. Hot
// exchange paths use this to post sends without allocating a Request;
// it records as MPI_Isend, exactly like Isend.
func (r *Rank) IsendMsg(dst, tag int, data []float64, ints []int64) {
	r.checkPeer(dst)
	start := time.Now()
	nbytes := r.deliver(dst, tag, data, ints)
	r.prof.record("MPI_Isend", time.Since(start).Seconds(), r.comm.model.Alpha, nbytes)
}

// Recv blocks until a message from src with the given tag arrives and
// returns its float payload. src may be AnySource and tag AnyTag.
func (r *Rank) Recv(src, tag int) []float64 {
	data, _, _ := r.recvCommon("MPI_Recv", src, tag)
	return data
}

// RecvInts is Recv for int64 payloads.
func (r *Rank) RecvInts(src, tag int) []int64 {
	_, ints, _ := r.recvCommon("MPI_Recv", src, tag)
	return ints
}

// RecvMsg receives a mixed payload, also reporting the sender (useful with
// AnySource).
func (r *Rank) RecvMsg(src, tag int) (data []float64, ints []int64, from int) {
	return r.recvCommon("MPI_Recv", src, tag)
}

func (r *Rank) recvCommon(op string, src, tag int) ([]float64, []int64, int) {
	if src != AnySource {
		r.checkPeer(src)
	}
	start := time.Now()
	m := r.mustTake(src, tag)
	wait := r.receive(m)
	r.prof.record(op, time.Since(start).Seconds(), wait, m.bytes())
	return m.data, m.ints, m.src
}

// Sendrecv performs a simultaneous exchange with (possibly different)
// peers, the pattern pairwise-exchange algorithms are built from.
func (r *Rank) Sendrecv(dst, sendTag int, data []float64, src, recvTag int) []float64 {
	r.checkPeer(dst)
	start := time.Now()
	nbytes := r.deliver(dst, sendTag, data, nil)
	in := r.mustTake(src, recvTag)
	wait := r.receive(in)
	r.prof.record("MPI_Sendrecv", time.Since(start).Seconds(), wait+r.comm.model.Alpha, nbytes+in.bytes())
	return in.data
}

// Probe blocks until a message matching (src, tag) is available and
// returns its source, tag and payload byte count without receiving it.
func (r *Rank) Probe(src, tag int) (fromSrc, fromTag int, bytes int64) {
	start := time.Now()
	m := r.comm.boxes[r.id].peek(src, tag, r.comm)
	r.prof.record("MPI_Probe", time.Since(start).Seconds(), 0, 0)
	return m.src, m.tag, m.bytes()
}
