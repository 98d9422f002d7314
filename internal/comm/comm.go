// Package comm is the message-passing substrate of the multi-domain
// LULESH (internal/dist). It stands in for MPI point-to-point
// communication in the paper's future-work experiment (multi-node LULESH,
// synchronous MPI-style exchange versus asynchronous overlap), preserving
// the properties that matter for that comparison: per-pair message
// ordering, blocking receives with measurable wait time, and no shared
// mutable buffers between sender and receiver.
//
// The fabric comes in two physical forms behind one Endpoint API. An
// in-process cluster (NewCluster and friends) runs each rank as a
// goroutine with messages travelling over buffered channels — the
// original simulated fabric. A remote cluster (NewRemoteCluster) holds
// exactly one rank per OS process and moves messages through a RemoteLink
// — the TCP fabric of internal/wire — so the same exchange protocol runs
// over real sockets between real processes. The protocol code is shared:
// everything below about sequencing, deadlines and recovery applies to
// both forms.
//
// # Fault tolerance
//
// Clusters built with NewClusterOptions run in fault-tolerant mode: every
// send is routed through a pluggable Transport (the seed-driven
// FaultInjector can drop, delay, duplicate and reorder messages, and crash
// a whole rank at a chosen step), and the receive side compensates.
// Messages carry per-(pair, tag) sequence numbers; RecvDeadline filters
// duplicates, restores order, and — when the expected message does not
// arrive within the exchange deadline — asks the sender to retransmit
// from its per-stream resend buffer, backing off exponentially up to the
// retry limit before failing with ErrExchangeTimeout. A crashed peer stops
// answering resend requests, so the deadline doubles as the failure
// detector. Clusters built with NewCluster/NewClusterLatency skip all of
// this: the reliable channel transport is the zero-cost default.
package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Tag identifies the exchange phase a message belongs to, mirroring MPI
// message tags.
type Tag int

// Exchange phases of the multi-domain leapfrog.
const (
	TagNodalMass Tag = iota + 1
	TagReduce
	TagTrace  // post-run trace-snapshot gather to rank 0
	TagForces // boundary forces: Fx|Fy|Fz in one frame per peer
	TagDelv   // boundary gradients: DelvXi|DelvEta|DelvZeta in one frame per peer
)

func (t Tag) String() string {
	switch t {
	case TagNodalMass:
		return "nodalMass"
	case TagReduce:
		return "reduce"
	case TagTrace:
		return "trace"
	case TagForces:
		return "forces"
	case TagDelv:
		return "delv"
	default:
		return fmt.Sprintf("tag(%d)", int(t))
	}
}

// Typed failures of the fault-tolerant exchange. Both are recoverable by
// the distributed driver's checkpoint/restart machinery; physics errors
// are not wrapped in either.
var (
	// ErrExchangeTimeout: a receive exhausted its deadline and retry
	// budget — the failure-detection signal for a dead or unreachable peer.
	ErrExchangeTimeout = errors.New("comm: exchange deadline exceeded")

	// ErrRankCrashed: a whole rank is gone — the fault plan scheduled this
	// rank's crash, or (on a remote cluster) a peer's connection was lost.
	// The rank holding the error must abandon the protocol immediately.
	ErrRankCrashed = errors.New("comm: rank crashed")
)

type message struct {
	tag   Tag
	seq   uint64 // per-(pair, tag) stream sequence (fault-tolerant mode)
	data  []float64
	ready time.Time // earliest delivery instant (simulated link latency)
}

// ctrlMsg is a resend request: "retransmit (tag, seq) to rank from".
type ctrlMsg struct {
	from int
	tag  Tag
	seq  uint64
}

// Options configures a fault-tolerant fabric.
type Options struct {
	// Latency is the one-way link latency (0 = instant delivery).
	Latency time.Duration

	// Transport intercepts every send. nil selects Reliable. Supplying a
	// FaultInjector (or any custom Transport) enables the fault-tolerant
	// receive path.
	Transport Transport

	// ExchangeDeadline bounds each wait for an expected message before a
	// resend request is issued; it doubles after every retry
	// (exponential backoff). 0 = DefaultExchangeDeadline.
	ExchangeDeadline time.Duration

	// RetryLimit is how many resend requests a receive issues before
	// failing with ErrExchangeTimeout. 0 = DefaultRetryLimit.
	RetryLimit int
}

// Defaults for Options' zero values: the deadline must comfortably exceed
// one compute phase so retries mean "message lost", not "peer still busy".
const (
	DefaultExchangeDeadline = 100 * time.Millisecond
	DefaultRetryLimit       = 6
)

// Cluster is a fully connected fabric of size ranks.
type Cluster struct {
	size    int
	latency time.Duration
	pipes   [][]chan message // pipes[from][to]

	// Remote mode (nil = every rank is an in-process goroutine): only
	// rank `local` lives here; everything else goes through the link.
	remote RemoteLink
	local  int

	// Fault-tolerant mode (nil transport = reliable fast path).
	tr         Transport
	deadline   time.Duration
	retryLimit int
	ctrl       []chan ctrlMsg // ctrl[rank]: resend requests addressed to rank
	counters   fabricCounters
}

// fabricCounters aggregates the recovery protocol's activity across all
// endpoints (atomics: endpoints on different goroutines share them).
type fabricCounters struct {
	retries   atomic.Int64 // resend requests issued
	timeouts  atomic.Int64 // receives that exhausted their retry budget
	resends   atomic.Int64 // resend requests served from a send buffer
	dups      atomic.Int64 // duplicate deliveries discarded by seq filter
	overflows atomic.Int64 // sends dropped because the peer stopped draining
	crashes   atomic.Int64 // injected whole-rank crashes taken
}

// FabricStats is a snapshot of the fabric-wide fault-tolerance counters,
// combining the endpoints' recovery activity with the injector's committed
// faults (zero when the cluster runs the reliable default transport).
type FabricStats struct {
	Retries           int64 // resend requests issued by receivers
	Timeouts          int64 // receives that gave up (failure detections)
	ResendsServed     int64 // retransmissions served by senders
	DuplicatesDropped int64 // deliveries discarded by the sequence filter
	OverflowDropped   int64 // sends dropped on a full pipe (peer gone)
	Crashes           int64 // injected rank crashes taken
	Injected          InjectStats
}

// channel capacity per directed pair; the leapfrog protocol has at most a
// handful of in-flight messages per pair per iteration, plus headroom for
// injected duplicates and retransmissions.
const pipeCap = 32

// NewCluster creates a zero-latency fabric connecting n ranks.
func NewCluster(n int) *Cluster { return NewClusterLatency(n, 0) }

// NewClusterLatency creates a fabric whose messages become visible to the
// receiver only after the given one-way latency — the model of a real
// interconnect that makes the synchronous-vs-overlapped comparison
// meaningful: a blocking receive pays the remaining latency as wait time,
// while an overlapped schedule computes through it.
func NewClusterLatency(n int, latency time.Duration) *Cluster {
	return newCluster(n, latency)
}

// NewClusterOptions creates a fault-tolerant fabric: sends go through
// opt.Transport (Reliable when nil) and receives run the sequence-checked
// deadline/retry/backoff protocol. See the package comment.
func NewClusterOptions(n int, opt Options) *Cluster {
	c := newCluster(n, opt.Latency)
	c.tr = opt.Transport
	if c.tr == nil {
		c.tr = Reliable{}
	}
	c.deadline = opt.ExchangeDeadline
	if c.deadline <= 0 {
		c.deadline = DefaultExchangeDeadline
	}
	c.retryLimit = opt.RetryLimit
	if c.retryLimit <= 0 {
		c.retryLimit = DefaultRetryLimit
	}
	c.ctrl = make([]chan ctrlMsg, n)
	for i := range c.ctrl {
		c.ctrl[i] = make(chan ctrlMsg, 8*n)
	}
	return c
}

func newCluster(n int, latency time.Duration) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("comm: cluster size must be >= 1, got %d", n))
	}
	c := &Cluster{size: n, latency: latency, pipes: make([][]chan message, n)}
	for from := 0; from < n; from++ {
		c.pipes[from] = make([]chan message, n)
		for to := 0; to < n; to++ {
			if from != to {
				c.pipes[from][to] = make(chan message, pipeCap)
			}
		}
	}
	return c
}

// ft reports whether the fault-tolerant path is active.
func (c *Cluster) ft() bool { return c.tr != nil }

// Latency reports the fabric's one-way message latency.
func (c *Cluster) Latency() time.Duration { return c.latency }

// Size reports the number of ranks.
func (c *Cluster) Size() int { return c.size }

// FabricStats snapshots the fault-tolerance counters (all zero for a
// reliable cluster).
func (c *Cluster) FabricStats() FabricStats {
	fs := FabricStats{
		Retries:           c.counters.retries.Load(),
		Timeouts:          c.counters.timeouts.Load(),
		ResendsServed:     c.counters.resends.Load(),
		DuplicatesDropped: c.counters.dups.Load(),
		OverflowDropped:   c.counters.overflows.Load(),
		Crashes:           c.counters.crashes.Load(),
	}
	// The injector may sit behind wrapping transports (e.g. Delay); walk
	// the chain so injected-fault stats stay visible either way.
	for tr := c.tr; tr != nil; {
		if inj, ok := tr.(*FaultInjector); ok {
			fs.Injected = inj.Stats()
			break
		}
		u, ok := tr.(interface{ Unwrap() Transport })
		if !ok {
			break
		}
		tr = u.Unwrap()
	}
	return fs
}

// Endpoint returns rank r's communication endpoint. On a remote cluster
// only the local rank's endpoint exists in this process.
func (c *Cluster) Endpoint(r int) *Endpoint {
	if r < 0 || r >= c.size {
		panic(fmt.Sprintf("comm: rank %d out of [0,%d)", r, c.size))
	}
	if c.remote != nil && r != c.local {
		panic(fmt.Sprintf("comm: rank %d is not local to this process (local rank %d)", r, c.local))
	}
	e := &Endpoint{c: c, rank: r, heads: make(map[int]message)}
	if c.ft() {
		e.sendSeq = make(map[pairKey]uint64)
		e.sendBuf = make(map[pairKey]sentEntry)
		e.recvSeq = make(map[pairKey]uint64)
		e.mail = make(map[pairKey]map[uint64]message)
	}
	return e
}

// pairKey identifies one directed (peer, tag) message stream.
type pairKey struct {
	peer int
	tag  Tag
}

// sentEntry is a stream's most recent payload, kept for retransmission.
type sentEntry struct {
	seq  uint64
	data []float64
}

// Endpoint is one rank's view of the fabric. Each endpoint must be used by
// a single goroutine (like an MPI rank).
type Endpoint struct {
	c    *Cluster
	rank int

	// heads holds one popped-but-not-yet-deliverable message per peer
	// (TryRecv may pull a message from the pipe before its latency has
	// elapsed). Endpoints are single-goroutine, so no locking.
	heads map[int]message

	// Fault-tolerant streams (nil on reliable clusters). Single-goroutine,
	// like heads.
	sendSeq map[pairKey]uint64             // next seq per outgoing stream
	sendBuf map[pairKey]sentEntry          // resend buffer per outgoing stream
	recvSeq map[pairKey]uint64             // next expected seq per incoming stream
	mail    map[pairKey]map[uint64]message // out-of-order arrivals by seq

	waitNanos    atomic.Int64 // time spent blocked in Recv
	ghostWaitNs  atomic.Int64 // wait attributed to ghost/boundary exchanges
	reduceWaitNs atomic.Int64 // wait attributed to the dt allreduce
	sent         atomic.Int64 // messages sent
	received     atomic.Int64 // messages received
	bytesSent    atomic.Int64
	retries      atomic.Int64 // resend requests this endpoint issued
	timeouts     atomic.Int64 // failed exchanges on this endpoint

	// Distributed tracing (nil sink = disabled; see trace.go). The span
	// seq counters are ordinal per stream, independent of the FT seqs.
	sink         TraceSink
	traceStep    int
	traceSendSeq map[pairKey]uint64
	traceRecvSeq map[pairKey]uint64
}

// Rank reports this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size reports the cluster size.
func (e *Endpoint) Size() int { return e.c.size }

// Send transmits a copy of data to rank `to`. On a reliable cluster it is
// non-blocking as long as fewer than pipeCap messages are in flight to the
// same peer (the analog of MPI eager sends); exceeding that blocks until
// the peer drains. On a fault-tolerant cluster the message is stamped with
// its stream sequence number, retained for retransmission, and routed
// through the Transport; a full pipe then drops the message instead of
// blocking (a crashed peer must not wedge its neighbours), counting on the
// resend protocol to recover it.
func (e *Endpoint) Send(to int, tag Tag, data []float64) {
	if to == e.rank {
		panic("comm: send to self")
	}
	e.sent.Add(1)
	e.bytesSent.Add(int64(8 * len(data)))
	e.traceSend(to, tag, 8*len(data))
	if e.c.ft() {
		k := pairKey{to, tag}
		seq := e.sendSeq[k]
		e.sendSeq[k] = seq + 1
		var buf []float64
		if e.c.remote != nil {
			// Remote mode reuses the stream's resend buffer: the link fully
			// serializes the payload before SendData returns and transports
			// may not retain Data (see Transport), so steady-state ghost
			// exchange allocates nothing on the send path.
			buf = e.sendBuf[k].data
			if cap(buf) < len(data) {
				buf = make([]float64, len(data))
			}
			buf = buf[:len(data)]
		} else {
			// In-process delivery hands the slice to the receiver by
			// reference, so every send needs a fresh copy.
			buf = make([]float64, len(data))
		}
		copy(buf, data)
		e.sendBuf[k] = sentEntry{seq: seq, data: buf}
		e.transmit(Message{From: e.rank, To: to, Tag: tag, Seq: seq, Data: buf})
		return
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	m := message{tag: tag, data: cp}
	if e.c.latency > 0 {
		m.ready = time.Now().Add(e.c.latency)
	}
	e.c.pipes[e.rank][to] <- m
}

// transmit routes one stamped message through the transport and enqueues
// the resulting deliveries. Fault-tolerant path only. The identity
// transport skips the slice-returning Transmit call entirely, keeping the
// common path allocation-free.
func (e *Endpoint) transmit(m Message) {
	if _, reliable := e.c.tr.(Reliable); reliable {
		e.deliver(m)
		return
	}
	for _, d := range e.c.tr.Transmit(m) {
		e.deliver(d)
	}
}

// deliver enqueues one transport-approved delivery: into the peer's pipe
// in-process, or onto the wire on a remote cluster.
func (e *Endpoint) deliver(d Message) {
	if e.c.remote != nil {
		if err := e.c.remote.SendData(d.To, d.Tag, d.Seq, d.Delay, d.Data); err != nil {
			// The link refused (dead or wedged peer); the resend protocol —
			// or the peer-death detector — takes it from here.
			e.c.counters.overflows.Add(1)
		}
		return
	}
	msg := message{tag: d.Tag, seq: d.Seq, data: d.Data}
	if delay := e.c.latency + d.Delay; delay > 0 {
		msg.ready = time.Now().Add(delay)
	}
	select {
	case e.c.pipes[e.rank][d.To] <- msg:
	default:
		// The peer stopped draining (crashed or aborted); dropping here
		// keeps the sender alive, and the peer's deadline — or ours —
		// surfaces the failure.
		e.c.counters.overflows.Add(1)
	}
}

// Recv blocks until the next message from rank `from` has arrived and its
// simulated link latency has elapsed, then returns its payload. The
// message's tag must match: the exchange protocol is deterministic per
// pair, so a mismatch is a protocol error and panics. Blocked time —
// both waiting for the sender and waiting out the latency — is accounted
// to the endpoint's wait counter.
//
// Recv is the reliable-cluster primitive; fault-tolerant clusters must use
// RecvDeadline, which tolerates loss, duplication and reordering.
func (e *Endpoint) Recv(from int, tag Tag) []float64 {
	m, ok := e.takeHead(from)
	if !ok {
		ch := e.c.pipes[from][e.rank]
		select {
		case m = <-ch:
		default:
			start := time.Now()
			m = <-ch
			e.addWait(tag, time.Since(start))
		}
	}
	if !m.ready.IsZero() {
		if remaining := time.Until(m.ready); remaining > 0 {
			time.Sleep(remaining)
			e.addWait(tag, remaining)
		}
	}
	e.checkTag(from, tag, m.tag)
	e.received.Add(1)
	e.traceRecv(from, tag, 8*len(m.data))
	return m.data
}

// RecvDeadline returns the next in-sequence message of the (from, tag)
// stream. On a reliable cluster it is exactly Recv. On a fault-tolerant
// cluster it runs the recovery protocol: out-of-order and duplicate
// arrivals are reconciled through the per-stream mailbox, and when the
// expected sequence number has not arrived within the exchange deadline a
// resend request is sent to the peer, with exponential backoff, up to the
// retry limit — after which the peer is declared failed and
// ErrExchangeTimeout is returned. While blocked, the endpoint also
// services its peers' resend requests, which keeps mutual waits deadlock-
// free.
func (e *Endpoint) RecvDeadline(from int, tag Tag) ([]float64, error) {
	if !e.c.ft() {
		return e.Recv(from, tag), nil
	}
	k := pairKey{from, tag}
	want := e.recvSeq[k]
	if data, ok := e.takeMail(k, want); ok {
		return data, nil
	}
	start := time.Now()
	defer func() { e.addWait(tag, time.Since(start)) }()

	backoff := e.c.deadline
	timer := time.NewTimer(backoff)
	defer timer.Stop()
	retries := 0
	pipe := e.c.pipes[from][e.rank]
	for {
		select {
		case m := <-pipe:
			e.stash(k.peer, m)
		case req := <-e.c.ctrl[e.rank]:
			e.serviceResend(req)
		case <-timer.C:
			// On a remote cluster a lost peer connection is definitive:
			// fail fast instead of burning the retry budget. Checked only
			// here, after the pipe drained, because an orderly TCP close
			// delivers all data before the EOF that marks the peer dead.
			if derr := e.c.peerDead(from); derr != nil {
				e.c.counters.timeouts.Add(1)
				e.timeouts.Add(1)
				return nil, fmt.Errorf("rank %d waiting on rank %d for %v seq %d: peer lost (%v): %w",
					e.rank, from, tag, want, derr, ErrRankCrashed)
			}
			if retries >= e.c.retryLimit {
				e.c.counters.timeouts.Add(1)
				e.timeouts.Add(1)
				return nil, fmt.Errorf("rank %d waiting on rank %d for %v seq %d (%d retries): %w",
					e.rank, from, tag, want, retries, ErrExchangeTimeout)
			}
			retries++
			e.c.counters.retries.Add(1)
			e.retries.Add(1)
			e.requestResend(from, tag, want)
			backoff *= 2
			timer.Reset(backoff)
		}
		if data, ok := e.takeMail(k, want); ok {
			return data, nil
		}
	}
}

// stash files an arrival into its stream mailbox, discarding duplicates
// (sequence numbers already delivered or already stashed).
func (e *Endpoint) stash(from int, m message) {
	k := pairKey{from, m.tag}
	if m.seq < e.recvSeq[k] {
		e.c.counters.dups.Add(1)
		return
	}
	box := e.mail[k]
	if box == nil {
		box = make(map[uint64]message)
		e.mail[k] = box
	}
	if _, dup := box[m.seq]; dup {
		e.c.counters.dups.Add(1)
		return
	}
	box[m.seq] = m
}

// takeMail delivers the wanted sequence number from a stream mailbox if
// present, sleeping out any remaining simulated latency, and advances the
// stream cursor.
func (e *Endpoint) takeMail(k pairKey, want uint64) ([]float64, bool) {
	box := e.mail[k]
	m, ok := box[want]
	if !ok {
		return nil, false
	}
	delete(box, want)
	if !m.ready.IsZero() {
		if remaining := time.Until(m.ready); remaining > 0 {
			time.Sleep(remaining)
		}
	}
	e.recvSeq[k] = want + 1
	e.received.Add(1)
	e.traceRecv(k.peer, k.tag, 8*len(m.data))
	return m.data, true
}

// requestResend asks the peer to retransmit (tag, seq). Non-blocking: a
// full control channel (or a refused wire send) just means the next
// backoff round asks again.
func (e *Endpoint) requestResend(from int, tag Tag, seq uint64) {
	if e.c.remote != nil {
		_ = e.c.remote.SendCtrl(from, tag, seq)
		return
	}
	select {
	case e.c.ctrl[from] <- ctrlMsg{from: e.rank, tag: tag, seq: seq}:
	default:
	}
}

// serviceResend answers a peer's resend request from the send buffer. The
// stream's latest payload is retransmitted (the protocol keeps at most one
// message outstanding per stream, so the latest is the missing one);
// requests for sequence numbers not yet sent are ignored — the receiver's
// deadline fired while this rank was still computing, and the regular send
// will satisfy it.
func (e *Endpoint) serviceResend(req ctrlMsg) {
	k := pairKey{req.from, req.tag}
	ent, ok := e.sendBuf[k]
	if !ok || ent.seq < req.seq {
		return
	}
	e.c.counters.resends.Add(1)
	e.transmit(Message{From: e.rank, To: req.from, Tag: req.tag, Seq: ent.seq, Data: ent.data})
}

// Poll services any pending resend requests without blocking. The
// distributed protocol does this implicitly inside every RecvDeadline;
// callers whose ranks send without ever receiving (one-directional
// exchanges) must Poll to answer their peers' recovery traffic.
func (e *Endpoint) Poll() {
	if !e.c.ft() {
		return
	}
	for {
		select {
		case req := <-e.c.ctrl[e.rank]:
			e.serviceResend(req)
		default:
			return
		}
	}
}

// EnterEpoch advances this endpoint's comm epoch (the driver's timestep)
// and reports a scheduled whole-rank crash: ErrRankCrashed means the
// caller must abandon the protocol immediately, without flushing or
// announcing anything — its peers detect the loss by exchange deadline.
func (e *Endpoint) EnterEpoch(epoch int) error {
	if cr, ok := e.c.tr.(Crasher); ok && cr.CrashNow(e.rank, epoch) {
		e.c.counters.crashes.Add(1)
		return fmt.Errorf("rank %d at epoch %d: %w", e.rank, epoch, ErrRankCrashed)
	}
	return nil
}

// takeHead pops a previously peeked message for the given peer.
func (e *Endpoint) takeHead(from int) (message, bool) {
	m, ok := e.heads[from]
	if ok {
		delete(e.heads, from)
	}
	return m, ok
}

func (e *Endpoint) checkTag(from int, want, got Tag) {
	if want != got {
		panic(fmt.Sprintf("comm: rank %d expected %v from rank %d, got %v",
			e.rank, want, from, got))
	}
}

// TryRecv returns the next message from `from` if one has arrived and its
// latency has elapsed, without blocking. Used by asynchronous exchanges to
// poll while overlapping computation. Reliable clusters only.
func (e *Endpoint) TryRecv(from int, tag Tag) ([]float64, bool) {
	m, ok := e.takeHead(from)
	if !ok {
		select {
		case m = <-e.c.pipes[from][e.rank]:
		default:
			return nil, false
		}
	}
	if !m.ready.IsZero() && time.Now().Before(m.ready) {
		e.heads[from] = m // keep for a later attempt
		return nil, false
	}
	e.checkTag(from, tag, m.tag)
	e.received.Add(1)
	e.traceRecv(from, tag, 8*len(m.data))
	return m.data, true
}

// Stats summarizes an endpoint's communication activity.
type Stats struct {
	Rank       int
	Wait       time.Duration // time blocked in Recv
	WaitGhost  time.Duration // portion of Wait in ghost/boundary exchanges
	WaitReduce time.Duration // portion of Wait in the dt allreduce
	Sent       int64
	Received   int64
	BytesSent  int64
	Retries    int64 // resend requests issued (fault-tolerant mode)
	Timeouts   int64 // exchanges that exhausted the retry budget
}

// StatsSnapshot returns the endpoint's accumulated counters.
func (e *Endpoint) StatsSnapshot() Stats {
	return Stats{
		Rank:       e.rank,
		Wait:       time.Duration(e.waitNanos.Load()),
		WaitGhost:  time.Duration(e.ghostWaitNs.Load()),
		WaitReduce: time.Duration(e.reduceWaitNs.Load()),
		Sent:       e.sent.Load(),
		Received:   e.received.Load(),
		BytesSent:  e.bytesSent.Load(),
		Retries:    e.retries.Load(),
		Timeouts:   e.timeouts.Load(),
	}
}

// ResetStats zeroes the endpoint counters.
func (e *Endpoint) ResetStats() {
	e.waitNanos.Store(0)
	e.ghostWaitNs.Store(0)
	e.reduceWaitNs.Store(0)
	e.sent.Store(0)
	e.received.Store(0)
	e.bytesSent.Store(0)
	e.retries.Store(0)
	e.timeouts.Store(0)
}

// AllReduceMin folds vals element-wise with min across all ranks and
// returns the global result on every rank. Implemented as a gather to
// rank 0 and a broadcast, with a deterministic (rank-ascending) fold
// order; min is exact, so the order does not affect the value. On a
// fault-tolerant cluster every constituent receive runs under the
// deadline/retry protocol, so a lost contribution is re-requested and a
// dead rank surfaces as ErrExchangeTimeout instead of a deadlock.
func (e *Endpoint) AllReduceMin(vals []float64) ([]float64, error) {
	n := e.c.size
	if n == 1 {
		out := make([]float64, len(vals))
		copy(out, vals)
		return out, nil
	}
	if e.rank == 0 {
		acc := make([]float64, len(vals))
		copy(acc, vals)
		for from := 1; from < n; from++ {
			theirs, err := e.RecvDeadline(from, TagReduce)
			if err != nil {
				return nil, err
			}
			if len(theirs) != len(acc) {
				panic("comm: AllReduceMin length mismatch")
			}
			for i, v := range theirs {
				if v < acc[i] {
					acc[i] = v
				}
			}
		}
		for to := 1; to < n; to++ {
			e.Send(to, TagReduce, acc)
		}
		return acc, nil
	}
	e.Send(0, TagReduce, vals)
	return e.RecvDeadline(0, TagReduce)
}

// AllReduceMinTree is AllReduceMin over a binomial tree: the reduce walks
// up the tree (each rank folds its subtree's minima, then sends one
// message to its parent) and the broadcast mirrors it back down, so the
// critical path is 2·⌈log2(n)⌉ sequential hops instead of the linear
// gather's n−1 receives serialized on rank 0 — and rank 0 handles
// O(log n) messages per step instead of O(n). Min is exact, so the
// different fold order produces bitwise-identical results to
// AllReduceMin, which the tests and luleshverify assert.
//
// Tree edges reuse TagReduce: each (pair, direction) carries at most one
// message per reduction, so the per-stream sequencing of the
// fault-tolerant fabric applies unchanged and every constituent receive
// runs under the deadline/retry protocol.
func (e *Endpoint) AllReduceMinTree(vals []float64) ([]float64, error) {
	n := e.c.size
	acc := make([]float64, len(vals))
	copy(acc, vals)
	if n == 1 {
		return acc, nil
	}
	// Reduce phase: fold the children (ranks r+1, r+2, r+4, ... below the
	// lowest set bit), then hand the subtree minimum to the parent r−lsb.
	// Rank 0 has no parent and ends holding the global minimum.
	for ofs := 1; ofs < n; ofs <<= 1 {
		if e.rank&ofs != 0 {
			e.Send(e.rank-ofs, TagReduce, acc)
			break
		}
		if peer := e.rank + ofs; peer < n {
			theirs, err := e.RecvDeadline(peer, TagReduce)
			if err != nil {
				return nil, err
			}
			if len(theirs) != len(acc) {
				panic("comm: AllReduceMinTree length mismatch")
			}
			for i, v := range theirs {
				if v < acc[i] {
					acc[i] = v
				}
			}
		}
	}
	// Broadcast phase: the mirror image. Each rank receives the result
	// from its parent, then forwards it to its children in descending
	// offset order; rank 0 starts from the top with a virtual lsb.
	lsb := e.rank & -e.rank
	if e.rank == 0 {
		lsb = 1
		for lsb < n {
			lsb <<= 1
		}
	} else {
		res, err := e.RecvDeadline(e.rank-lsb, TagReduce)
		if err != nil {
			return nil, err
		}
		if len(res) != len(acc) {
			panic("comm: AllReduceMinTree length mismatch")
		}
		copy(acc, res)
	}
	for ofs := lsb >> 1; ofs >= 1; ofs >>= 1 {
		if peer := e.rank + ofs; peer < n {
			e.Send(peer, TagReduce, acc)
		}
	}
	return acc, nil
}
