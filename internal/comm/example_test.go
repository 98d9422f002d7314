package comm_test

import (
	"fmt"
	"sync"
	"time"

	"lulesh/internal/comm"
	"lulesh/internal/wire"
)

// lossyOnce is a Transport that drops the first message it carries and
// delivers everything else unchanged — the smallest possible custom fault
// model.
type lossyOnce struct{ dropped bool }

func (l *lossyOnce) Transmit(m comm.Message) []comm.Message {
	if !l.dropped {
		l.dropped = true
		return nil // an empty slice drops the message
	}
	return []comm.Message{m}
}

// ExampleTransport shows the fault-tolerant receive path recovering a
// dropped message through the deadline/resend protocol: the receiver's
// deadline fires, a resend request reaches the sender, and the
// retransmission delivers the payload.
func ExampleTransport() {
	c := comm.NewClusterOptions(2, comm.Options{
		Transport:        &lossyOnce{},
		ExchangeDeadline: 2 * time.Millisecond,
		RetryLimit:       4,
	})
	sender, receiver := c.Endpoint(0), c.Endpoint(1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		sender.Send(1, comm.TagForces, []float64{3.5})
		// The transport dropped that send. A rank that only sends must
		// poll for its peers' resend requests; ranks blocked in
		// RecvDeadline service them automatically.
		for {
			select {
			case <-time.After(100 * time.Microsecond):
				sender.Poll()
			case <-done:
				return
			}
		}
	}()

	data, err := receiver.RecvDeadline(0, comm.TagForces)
	done <- struct{}{}
	fmt.Println(data, err)

	stats := c.FabricStats()
	fmt.Println("recovered:", stats.Retries >= 1 && stats.ResendsServed >= 1)
	// Output:
	// [3.5] <nil>
	// recovered: true
}

// Example_remote sends a slab between two comm endpoints whose cluster
// spans real TCP sockets: each side joins a wire fabric (rank 0 listens
// on the rendezvous, rank 1 dials it and proves the shared cookie), and
// from there Send/RecvDeadline behave exactly as they do in-process —
// the socket is invisible above the RemoteLink seam.
func Example_remote() {
	rdv, err := wire.PickRendezvous()
	if err != nil {
		panic(err)
	}
	join := func(rank int) *wire.Fabric {
		f, err := wire.Join(wire.Config{
			Rank: rank, Size: 2, Rendezvous: rdv, Cookie: "example",
			Geometry: wire.Geometry{Size: 8, Iterations: 1, Schedule: "sync"},
		})
		if err != nil {
			panic(err)
		}
		return f
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the peer process's rank, here hosted by a goroutine
		defer wg.Done()
		fab := join(1)
		defer fab.Close()
		ep := fab.Cluster(comm.Options{}).Endpoint(1)
		ep.Send(0, comm.TagReduce, []float64{1, 2, 3})
		fab.Goodbye()
		fab.Linger(ep, time.Second)
	}()

	fab := join(0)
	defer fab.Close()
	ep := fab.Cluster(comm.Options{}).Endpoint(0)
	data, err := ep.RecvDeadline(1, comm.TagReduce)
	fmt.Println(data, err)
	fab.Goodbye()
	fab.Linger(ep, time.Second)
	wg.Wait()

	// Output:
	// [1 2 3] <nil>
}

// ExampleParseFaultPlan parses the -faults command-line syntax.
func ExampleParseFaultPlan() {
	plan, err := comm.ParseFaultPlan("drop=0.05,delay=0.02:500us,crash=1@20", 42)
	if err != nil {
		panic(err)
	}
	fmt.Println("drop:", plan.Drop)
	fmt.Println("delay:", plan.Delay, plan.DelayBy)
	fmt.Println("crash: rank", plan.CrashRank, "at step", plan.CrashStep)
	fmt.Println("active:", plan.Active())
	// Output:
	// drop: 0.05
	// delay: 0.02 500µs
	// crash: rank 1 at step 20
	// active: true
}

// ExampleDelay injects a deterministic 3ms one-way wire latency under a
// two-rank exchange: the payload arrives intact, but only after the link
// delay has elapsed — the knob the overlap experiments use to magnify
// communication cost without any randomness.
func ExampleDelay() {
	const link = 3 * time.Millisecond
	c := comm.NewClusterOptions(2, comm.Options{
		Transport:        comm.NewDelay(link, nil),
		ExchangeDeadline: 100 * time.Millisecond,
	})
	go c.Endpoint(0).Send(1, comm.TagForces, []float64{1.25})

	start := time.Now()
	data, err := c.Endpoint(1).RecvDeadline(0, comm.TagForces)
	fmt.Println(data, err)
	fmt.Println("waited at least one link delay:", time.Since(start) >= link)
	// Output:
	// [1.25] <nil>
	// waited at least one link delay: true
}

// ExampleEndpoint_AllReduceMinTree runs the binomial-tree allreduce on a
// four-rank fabric: every rank contributes its own [dtcourant, dthydro]
// pair and every rank receives the element-wise global minimum — the same
// value AllReduceMin computes, in 2·log2(4) = 4 hops on the critical path
// instead of a linear gather serialized on rank 0.
func ExampleEndpoint_AllReduceMinTree() {
	const n = 4
	c := comm.NewCluster(n)
	results := make([][]float64, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			mine := []float64{float64(10 + r), float64(20 - r)}
			out, err := c.Endpoint(r).AllReduceMinTree(mine)
			if err != nil {
				panic(err)
			}
			results[r] = out
		}(r)
	}
	wg.Wait()

	agree := true
	for r := 1; r < n; r++ {
		agree = agree && fmt.Sprint(results[r]) == fmt.Sprint(results[0])
	}
	fmt.Println("global minimum:", results[0])
	fmt.Println("all ranks agree:", agree)
	// Output:
	// global minimum: [10 17]
	// all ranks agree: true
}

// ExampleFaultInjector demonstrates that the injector's fault schedule is a
// pure function of (seed, per-pair message order): two injectors with the
// same plan make identical decisions.
func ExampleFaultInjector() {
	plan := comm.FaultPlan{Seed: 7, Drop: 0.25}
	a := comm.NewFaultInjector(plan, 2)
	b := comm.NewFaultInjector(plan, 2)

	identical := true
	for i := 0; i < 1000; i++ {
		m := comm.Message{From: 0, To: 1, Tag: comm.TagForces, Seq: uint64(i)}
		if len(a.Transmit(m)) != len(b.Transmit(m)) {
			identical = false
		}
	}
	fmt.Println("deterministic:", identical)
	fmt.Println("dropped out of 1000:", a.Stats().Dropped)
	// Output:
	// deterministic: true
	// dropped out of 1000: 243
}
