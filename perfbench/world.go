package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/tcptransport"
)

// bootstrapTimeout bounds TCP mesh formation and teardown.
const bootstrapTimeout = 20 * time.Second

// runWorld runs fn on every rank of a communicator of the given size:
// in-process, or, with tcp, one tcptransport endpoint per rank over
// 127.0.0.1 inside this process. The TCP ranks form their mesh through
// a rendezvous broker started beforehand, as a launcher would: every
// rank listens before it checks in, so no rank dials a peer that is not
// yet listening and mesh formation takes no retry back-off. For TCP
// runWorld also returns the wall time from the start of bootstrap until
// every rank's mesh was formed, and calls onMesh(start, end) on rank 0's
// bootstrap goroutine before rank 0's fn runs.
func runWorld(size int, tcp bool, opts comm.Options, onMesh func(start, end time.Time),
	fn func(*comm.Rank) error) (float64, error) {
	if !tcp {
		_, err := comm.Run(size, opts, fn)
		return 0, err
	}
	broker, err := tcptransport.NewBroker("127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("start rendezvous broker: %w", err)
	}
	served := make(chan error, 1)
	go func() { served <- broker.Serve() }()
	defer func() {
		broker.Close()
		<-served
	}()
	start := time.Now()
	meshed := make([]time.Duration, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := tcptransport.New(tcptransport.Config{
				Rank: rank, Size: size, BrokerAddr: broker.Addr(),
				BootstrapTimeout: bootstrapTimeout, CloseTimeout: bootstrapTimeout,
			})
			meshed[rank] = time.Since(start)
			if err != nil {
				errs[rank] = fmt.Errorf("rank %d: tcp bootstrap: %w", rank, err)
				return
			}
			if rank == 0 && onMesh != nil {
				onMesh(start, start.Add(meshed[rank]))
			}
			if _, err := comm.RunDistributed(tr, opts, fn); err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
			}
		}(rank)
	}
	wg.Wait()
	var mesh time.Duration
	for _, d := range meshed {
		mesh = max(mesh, d)
	}
	return mesh.Seconds(), errors.Join(errs...)
}
