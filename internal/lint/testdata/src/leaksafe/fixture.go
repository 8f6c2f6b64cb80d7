// Package leaksafe exercises the leaksafe analyzer: goroutines running
// unbounded loops with no retirement path, time.Tick, time.After inside
// loops, and context-blind time.Sleep in retry loops — with
// //querc:allow-leak suppression.
package leaksafe

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

func leakyLoop(work func()) {
	go func() { // want "goroutine runs an unbounded loop with no stop channel"
		for {
			work()
		}
	}()
}

func stoppableLoop(work func(), stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				work()
			}
		}
	}()
}

func counterDrainedPool(items []int, fn func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() { // ok: the loop returns when the shared counter is exhausted
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(items) {
					return
				}
				fn(items[k])
			}
		}()
	}
	wg.Wait()
}

func condParkedLoop(mu *sync.Mutex, cond *sync.Cond, work func()) {
	go func() { // ok: cond.Wait parks the goroutine under a waiter registry
		mu.Lock()
		defer mu.Unlock()
		for {
			cond.Wait()
			work()
		}
	}()
}

func waitGroupLoop(wg *sync.WaitGroup, work func()) {
	go func() { // want "goroutine runs an unbounded loop with no stop channel"
		for {
			wg.Wait()
			work()
		}
	}()
}

func allowedLoop(work func()) {
	//querc:allow-leak process-lifetime daemon, retired with the process
	go func() { // suppressed by the directive on the line above
		for {
			work()
		}
	}()
}

func tickLeak() <-chan time.Time {
	return time.Tick(time.Second) // want "time.Tick leaks its ticker"
}

func afterInLoop(done chan struct{}) {
	for {
		select {
		case <-done:
			return
		case <-time.After(time.Millisecond): // want "time.After in a loop"
		}
	}
}

func afterOutsideLoop(done chan struct{}) {
	select {
	case <-done:
	case <-time.After(time.Millisecond): // ok: one timer, not per iteration
	}
}

func methodAfterInLoop(deadline time.Time, poll func() bool) bool {
	for !poll() {
		if time.Now().After(deadline) { // ok: time.Time.After, not time.After
			return false
		}
	}
	return true
}

func sleepRetryIgnoresCtx(ctx context.Context, attempt func() error) error {
	var err error
	for i := 0; i < 5; i++ {
		if err = attempt(); err == nil {
			return nil
		}
		time.Sleep(time.Millisecond << i) // want "time.Sleep in a loop ignores the in-scope context"
	}
	return err
}

func sleepRetryChecksCtx(ctx context.Context, attempt func() error) error {
	var err error
	for i := 0; i < 5; i++ {
		if err = attempt(); err == nil {
			return nil
		}
		t := time.NewTimer(time.Millisecond << i)
		select {
		case <-ctx.Done(): // ok: cancellation interrupts the backoff
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	return err
}

func sleepCondConsultsCtx(ctx context.Context, poll func() bool) {
	for ctx.Err() == nil && !poll() { // ok: the loop condition consults the context
		time.Sleep(time.Millisecond)
	}
}

func sleepNoCtx(poll func() bool) {
	for !poll() {
		time.Sleep(time.Millisecond) // ok: no context in scope to consult
	}
}

func sleepClosureInheritsCtx(ctx context.Context, attempt func() error) {
	go func() {
		for attempt() != nil {
			time.Sleep(time.Millisecond) // want "time.Sleep in a loop ignores the in-scope context"
		}
	}()
}
