// Package pool is positbench's one fan-out for batch work: a fixed set of
// workers draining one bounded FIFO queue, the fork-join Run built on it,
// and the one rule for how many workers a caller gets.
//
// The queue is shared, so an idle worker always takes the oldest pending
// item. The chunk engines emit in submission order and keep at most
// workers+1 chunks pending, so the oldest pending chunk is always the one
// the in-order emitter waits on next.
package pool

import (
	"runtime"
	"sync"
)

// Workers is the worker-count rule every fan-out shares: workers <= 0
// means GOMAXPROCS, and a process limited to one CPU gets one worker
// however many were asked for, because there extra workers only add
// handoffs. A result of 1 tells the caller to run its items inline, in
// order.
func Workers(workers int) int {
	procs := runtime.GOMAXPROCS(0)
	if procs == 1 {
		return 1
	}
	if workers <= 0 {
		return procs
	}
	return workers
}

// Pool runs exec over submitted items on a fixed set of workers that
// drain one bounded FIFO queue. One goroutine submits; Close waits until
// every submitted item has run and every worker has exited.
type Pool[T any] struct {
	queue chan T
	wg    sync.WaitGroup
}

// New starts workers goroutines that call exec(worker, item) for each
// submitted item, where worker in [0, workers) names the goroutine running
// it. depth bounds the queue: Submit blocks while depth items are pending.
func New[T any](workers, depth int, exec func(worker int, item T)) *Pool[T] {
	p := &Pool[T]{queue: make(chan T, depth)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for item := range p.queue {
				exec(w, item)
			}
		}()
	}
	return p
}

// Submit queues item behind every item submitted before it, blocking while
// the queue is full.
func (p *Pool[T]) Submit(item T) { p.queue <- item }

// Close stops intake and returns once every submitted item has run and
// every worker has exited. Call it once, after the last Submit.
func (p *Pool[T]) Close() {
	close(p.queue)
	p.wg.Wait()
}

// Run calls fn(0), ..., fn(n-1) on Workers(workers) workers, at most n, and
// returns once every call has finished. With one worker or one item the
// calls run inline, in order, on the caller's goroutine. fn must be safe
// for concurrent calls; writing each result to its own index keeps the
// outcome independent of scheduling.
func Run(workers, n int, fn func(i int)) {
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p := New(workers, n, func(_ int, i int) { fn(i) })
	for i := 0; i < n; i++ {
		p.Submit(i)
	}
	p.Close()
}
