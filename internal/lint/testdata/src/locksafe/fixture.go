// Package locksafe exercises the locksafe analyzer: locks held across
// blocking operations, mixed atomic/plain field access, and goroutines
// calling unsynchronized methods on shared state — plus //querc:allow-race
// suppression on a line and across a whole function.
package locksafe

import (
	"sync"
	"sync/atomic"
	"time"
)

type counter struct {
	mu sync.Mutex
	n  int
}

func heldAcrossSleep(c *counter) {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want "is held across time.Sleep"
	c.mu.Unlock()
}

func heldAcrossSend(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch <- 1 // want "held across a channel send"
}

func heldAcrossRecv(c *counter, ch chan int) {
	c.mu.Lock()
	<-ch // want "held across a channel receive"
	c.mu.Unlock()
}

func unlockedAroundSleep(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	time.Sleep(time.Millisecond) // ok: lock released first
}

func allowedHold(c *counter, ch chan int) {
	c.mu.Lock()
	//querc:allow-race synchronizes a lifecycle handshake on purpose
	<-ch // suppressed by the directive on the line above
	c.mu.Unlock()
}

// allowedHoldFunc waits for a lifecycle handshake with the lock held.
//
//querc:allow-race the handshake holds the lock on purpose
func allowedHoldFunc(c *counter, ch chan int) {
	c.mu.Lock()
	c.n++
	<-ch // suppressed by the directive in the function's doc comment
	c.mu.Unlock()
}

type stats struct {
	hits int64
}

func mixedAccess(s *stats) int64 {
	atomic.AddInt64(&s.hits, 1)
	return s.hits // want "accessed atomically at .* but plainly here"
}

type model struct {
	weights []float64
}

func (m *model) update(i int, v float64) { m.weights[i] += v }

func racyWorkers(m *model) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.update(0, 1) // want "goroutine calls update, which uses no synchronization, on captured m"
		}()
	}
	wg.Wait()
}

func hogwildWorkers(m *model) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			//querc:allow-race deliberate lock-free updates, fixture mirror of Hogwild
			m.update(0, 1) // suppressed by the directive on the line above
		}()
	}
	wg.Wait()
}

func shardedWorkers(ms []*model) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ms[w].update(0, 1) // ok: per-worker shard indexed by the goroutine's own parameter
		}(w)
	}
	wg.Wait()
}

type locked struct {
	mu sync.Mutex
	n  int
}

func (l *locked) bump() {
	l.mu.Lock()
	l.n++
	l.mu.Unlock()
}

func safeWorkers(l *locked) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.bump() // ok: callee locks
		}()
	}
	wg.Wait()
}
