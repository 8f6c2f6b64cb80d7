package sched

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"querc/internal/core"
	"querc/internal/obs"
	"querc/internal/vec"
)

// labeled builds a query carrying a resource class (and optional affinity)
// label, the shape the label-driven policy admits on.
func labeled(sql, class, affinity string) *core.LabeledQuery {
	q := &core.LabeledQuery{SQL: sql}
	if class != "" {
		q.SetLabel("resource", class)
	}
	if affinity != "" {
		q.SetLabel("cluster", affinity)
	}
	return q
}

// gatedExec returns an executor that reports each pickup on started and
// blocks until release closes.
func gatedExec(started chan<- string, release <-chan struct{}) Executor {
	return func(t *Task) error {
		started <- t.Query.SQL
		<-release
		return nil
	}
}

// doneCollector returns an OnDone hook appending completion order under mu.
type doneCollector struct {
	mu    sync.Mutex
	order []string
	tasks []*Task
}

func (c *doneCollector) hook(t *Task) {
	c.mu.Lock()
	c.order = append(c.order, t.Query.SQL)
	c.tasks = append(c.tasks, t)
	c.mu.Unlock()
}

func (c *doneCollector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// TestFIFOOrderIgnoresLabels pins the baseline: under FIFO, completion order
// is admission order regardless of class labels.
func TestFIFOOrderIgnoresLabels(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	col := &doneCollector{}
	d, err := New(Config{
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: gatedExec(started, release)}},
		OnDone:   col.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(labeled("blocker", "heavy", "")); err != nil {
		t.Fatal(err)
	}
	<-started // blocker occupies the only slot; everything else must queue
	for i, class := range []string{"heavy", "light", "heavy", "light"} {
		if err := d.Enqueue(labeled(fmt.Sprintf("q%d", i), class, "")); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
	want := []string{"blocker", "q0", "q1", "q2", "q3"}
	got := col.snapshot()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fifo order: got %v want %v", got, want)
	}
}

// TestLabelPolicyPriorityOrder pins the tentpole behavior: with per-class
// queues and ClassOrder priority, queued light work dispatches before queued
// heavy work even when the heavy work arrived first.
func TestLabelPolicyPriorityOrder(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	col := &doneCollector{}
	d, err := New(Config{
		Policy:     &LabelPolicy{},
		ClassOrder: []string{"light", "medium", "heavy"},
		Backends:   []Backend{{Name: "b1", Slots: 1, Exec: gatedExec(started, release)}},
		OnDone:     col.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(labeled("blocker", "light", "")); err != nil {
		t.Fatal(err)
	}
	<-started
	for _, q := range []struct{ sql, class string }{
		{"h0", "heavy"}, {"h1", "heavy"}, {"m0", "medium"}, {"l0", "light"}, {"l1", "light"},
	} {
		if err := d.Enqueue(labeled(q.sql, q.class, "")); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
	want := []string{"blocker", "l0", "l1", "m0", "h0", "h1"}
	if got := col.snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("priority order: got %v want %v", got, want)
	}
}

// TestLabelPolicyDeadlineOrder pins EDF within one queue: a task with an
// earlier deadline dispatches first even when admitted later.
func TestLabelPolicyDeadlineOrder(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	col := &doneCollector{}
	d, err := New(Config{
		Policy: &LabelPolicy{},
		// Distinct SLA classes sharing one queue class via ClassKey
		// indirection: both tasks are admitted as "light" but carry
		// different deadlines through their SLA class targets.
		SLAKey: "sla",
		SLA: map[string]time.Duration{
			"tight": 10 * time.Millisecond,
			"loose": 10 * time.Second,
		},
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: gatedExec(started, release)}},
		OnDone:   col.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	blocker := labeled("blocker", "light", "")
	blocker.SetLabel("sla", "loose")
	if err := d.Enqueue(blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	loose := labeled("loose", "light", "")
	loose.SetLabel("sla", "loose")
	tight := labeled("tight", "light", "")
	tight.SetLabel("sla", "tight")
	nodeadline := labeled("nodeadline", "light", "")
	for _, q := range []*core.LabeledQuery{nodeadline, loose, tight} {
		if err := d.Enqueue(q); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
	want := []string{"blocker", "tight", "loose", "nodeadline"}
	if got := col.snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deadline order: got %v want %v", got, want)
	}
}

// TestBackpressure pins the bounded-queue contract: admission past QueueCap
// returns ErrQueueFull and counts as rejected.
func TestBackpressure(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	d, err := New(Config{
		QueueCap: 2,
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: gatedExec(started, release)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(labeled("blocker", "", "")); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if err := d.Enqueue(labeled(fmt.Sprintf("q%d", i), "", "")); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := d.Enqueue(labeled("overflow", "", "")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow: got %v want ErrQueueFull", err)
	}
	close(release)
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
	st := d.Stats()
	if st.Rejected != 1 || st.Completed != 3 || st.Submitted != 3 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestShedLowestClass pins overload shedding: a full backlog evicts the
// least-urgent task of the lowest-priority class to admit higher-priority
// work, and drops incoming work that is itself the least urgent.
func TestShedLowestClass(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	col := &doneCollector{}
	var evicted []string
	d, err := New(Config{
		Policy:     &LabelPolicy{},
		ClassOrder: []string{"light", "heavy"},
		QueueCap:   2,
		Shed:       true,
		Backends:   []Backend{{Name: "b1", Slots: 1, Exec: gatedExec(started, release)}},
		OnDone:     col.hook,
		OnEvict: func(t *Task) {
			if !errors.Is(t.Err, ErrShed) {
				panic("evicted task must carry ErrShed")
			}
			evicted = append(evicted, t.Query.SQL)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(labeled("blocker", "light", "")); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if err := d.Enqueue(labeled(fmt.Sprintf("h%d", i), "heavy", "")); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	// Higher-priority light work evicts the least-urgent heavy (h1).
	if err := d.Enqueue(labeled("l0", "light", "")); err != nil {
		t.Fatalf("shedding admit: %v", err)
	}
	// Incoming heavy is itself the least urgent: dropped.
	if err := d.Enqueue(labeled("h2", "heavy", "")); !errors.Is(err, ErrShed) {
		t.Fatalf("lowest incoming: got %v want ErrShed", err)
	}
	close(release)
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
	st := d.Stats()
	if st.Shed != 1 || st.Evicted != 1 || st.Rejected != 0 {
		t.Fatalf("shed counters: %+v", st)
	}
	if fmt.Sprint(evicted) != "[h1]" {
		t.Fatalf("OnEvict: %v", evicted)
	}
	if c := d.Counters(); c.Shed != 1 || c.Evicted != 1 || c.Completed != 3 || len(c.Classes) != 0 {
		t.Fatalf("counters snapshot: %+v", c)
	}
	// Conservation: admitted == completed + evicted (h2 was refused, never
	// admitted), and the dropped heavy work is visible per class.
	if st.Submitted != 4 || st.Completed != 3 {
		t.Fatalf("conservation: %+v", st)
	}
	for _, c := range st.Classes {
		wantDropped := uint64(0)
		if c.Class == "heavy" {
			wantDropped = 2 // h1 evicted + h2 refused
		}
		if c.Dropped != wantDropped {
			t.Fatalf("dropped accounting for %s: %+v", c.Class, c)
		}
	}
	want := []string{"blocker", "l0", "h0"}
	if got := col.snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-shed order: got %v want %v", got, want)
	}
}

// TestAffinityAndSteal pins that affinity is a preference, not a pin: an
// idle backend steals foreign-affinity work instead of idling, and the
// steal is counted.
func TestAffinityAndSteal(t *testing.T) {
	col := &doneCollector{}
	slow := func(t *Task) error { time.Sleep(5 * time.Millisecond); return nil }
	d, err := New(Config{
		Policy: &LabelPolicy{},
		Backends: []Backend{
			{Name: "b1", Slots: 1, Exec: slow},
			{Name: "b2", Slots: 1, Exec: slow},
		},
		OnDone: col.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := d.Enqueue(labeled(fmt.Sprintf("q%d", i), "light", "b1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
	st := d.Stats()
	if st.Stolen == 0 {
		t.Fatalf("expected steals with an idle backend, got %+v", st)
	}
	ranOn := map[string]int{}
	col.mu.Lock()
	for _, task := range col.tasks {
		ranOn[task.RanOn]++
	}
	col.mu.Unlock()
	if ranOn["b2"] == 0 {
		t.Fatalf("b2 idled through b1-affine backlog: %v", ranOn)
	}
}

// TestUnroutableAffinityCleared pins that an affinity hint naming no
// configured backend degrades to "any backend" rather than stranding the
// task.
func TestUnroutableAffinityCleared(t *testing.T) {
	d, err := New(Config{
		Policy:   &LabelPolicy{},
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: func(*Task) error { return nil }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(labeled("q", "light", "ghost-backend")); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if st := d.Stats(); st.Completed != 1 || st.Stolen != 0 {
		t.Fatalf("unroutable affinity: %+v", st)
	}
}

// TestSLAAccounting pins violation/penalty/percentile accounting, keyed by
// SLA class independently of the queueing policy.
func TestSLAAccounting(t *testing.T) {
	d, err := New(Config{
		SLA: map[string]time.Duration{"light": time.Millisecond},
		Backends: []Backend{{
			Name: "b1", Slots: 2,
			Exec: func(*Task) error { time.Sleep(15 * time.Millisecond); return nil },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Enqueue(labeled(fmt.Sprintf("l%d", i), "light", "")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Enqueue(labeled("untargeted", "bulk", "")); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
	st := d.Stats()
	var light, bulk *SLASnapshot
	for i := range st.Classes {
		switch st.Classes[i].Class {
		case "light":
			light = &st.Classes[i]
		case "bulk":
			bulk = &st.Classes[i]
		}
	}
	if light == nil || bulk == nil {
		t.Fatalf("classes missing: %+v", st.Classes)
	}
	if light.Completed != 3 || light.Violations != 3 || light.PenaltyMS <= 0 {
		t.Fatalf("light accounting: %+v", *light)
	}
	if light.TargetMS != 1 || light.P50MS < 10 || light.P99MS < light.P50MS {
		t.Fatalf("light latency: %+v", *light)
	}
	if bulk.Completed != 1 || bulk.Violations != 0 || bulk.TargetMS != 0 {
		t.Fatalf("bulk accounting: %+v", *bulk)
	}
}

// TestCostFromLabel pins the CostKey plumbing into Task.CostMS.
func TestCostFromLabel(t *testing.T) {
	col := &doneCollector{}
	d, err := New(Config{
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: func(*Task) error { return nil }}},
		OnDone:   col.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	good := labeled("good", "", "")
	good.SetLabel("runtimeMS", "12.5")
	bad := labeled("bad", "", "")
	bad.SetLabel("runtimeMS", "not-a-number")
	for _, q := range []*core.LabeledQuery{good, bad} {
		if err := d.Enqueue(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
	col.mu.Lock()
	defer col.mu.Unlock()
	for _, task := range col.tasks {
		switch task.Query.SQL {
		case "good":
			if task.CostMS != 12.5 {
				t.Fatalf("good cost: %v", task.CostMS)
			}
		case "bad":
			if task.CostMS != 0 {
				t.Fatalf("bad cost: %v", task.CostMS)
			}
		}
	}
}

// TestSimExecutor pins the scaled-sleep simulation and its fallback chain.
func TestSimExecutor(t *testing.T) {
	exec := SimExecutor(0.1, map[string]float64{"medium": 30}, 20)
	start := time.Now()
	if err := exec(&Task{CostMS: 50}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("cost sleep too short: %v", el)
	}
	start = time.Now()
	if err := exec(&Task{Class: "medium"}); err != nil { // classMS fallback: 3ms
		t.Fatal(err)
	}
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("class sleep too short: %v", el)
	}
	if err := exec(&Task{Class: "unknown"}); err != nil { // defaultMS fallback
		t.Fatal(err)
	}
}

// TestCloseAndDrain pins the shutdown contract: Close rejects new work with
// ErrClosed, the queued backlog still completes, and Drain times out
// honestly while a task is stuck.
func TestCloseAndDrain(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	d, err := New(Config{
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: gatedExec(started, release)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(labeled("stuck", "", "")); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := d.Enqueue(labeled("queued", "", "")); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(30 * time.Millisecond); err == nil {
		t.Fatal("drain with a stuck task must time out")
	}
	d.Close()
	if err := d.Enqueue(labeled("late", "", "")); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close enqueue: got %v want ErrClosed", err)
	}
	close(release)
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Completed != 2 {
		t.Fatalf("backlog must drain after close: %+v", st)
	}
}

// TestClassRegistryBounded pins the high-cardinality guard: past
// maxTrackedClasses distinct queue classes, new ones collapse into one
// overflow class instead of growing the registry (and per-dispatch scan)
// without bound — and every task still completes.
func TestClassRegistryBounded(t *testing.T) {
	d, err := New(Config{
		Policy:   &LabelPolicy{},
		QueueCap: 1 << 12,
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: func(*Task) error { return nil }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 * maxTrackedClasses
	for i := 0; i < n; i++ {
		if err := d.Enqueue(labeled(fmt.Sprintf("q%d", i), fmt.Sprintf("class%03d", i), "")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
	st := d.Stats()
	if st.Completed != n {
		t.Fatalf("completed %d of %d", st.Completed, n)
	}
	if len(st.Queues) > maxTrackedClasses {
		t.Fatalf("class registry unbounded: %d queues", len(st.Queues))
	}
	if st.Queues[len(st.Queues)-1].Class != overflowClass {
		t.Fatalf("overflow class missing from the last priority slot: %+v", st.Queues[len(st.Queues)-1])
	}
	if len(st.Classes) > maxTrackedClasses+1 {
		t.Fatalf("SLA accounting unbounded: %d classes", len(st.Classes))
	}
}

// TestConfigValidation pins constructor failure modes.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no backends must fail")
	}
	exec := func(*Task) error { return nil }
	if _, err := New(Config{Backends: []Backend{{Name: "", Exec: exec}}}); err == nil {
		t.Fatal("empty backend name must fail")
	}
	if _, err := New(Config{Backends: []Backend{{Name: "b", Exec: exec}, {Name: "b", Exec: exec}}}); err == nil {
		t.Fatal("duplicate backend name must fail")
	}
	if _, err := New(Config{Backends: []Backend{{Name: "b"}}}); err == nil {
		t.Fatal("nil executor must fail")
	}
}

// constEmbedder is a trivial embedder for service-integration tests.
type constEmbedder struct{}

func (constEmbedder) Embed(sql string) vec.Vector { return vec.Vector{1} }
func (constEmbedder) Dim() int                    { return 1 }
func (constEmbedder) Name() string                { return "const" }

// classifier builds a rule classifier writing value under key.
func classifier(key, value string) *core.Classifier {
	return &core.Classifier{
		LabelKey: key,
		Embedder: constEmbedder{},
		Labeler:  &core.RuleLabeler{RuleName: value, Rule: func(vec.Vector) string { return value }},
	}
}

// TestAttachSchedulerForwards pins the Service wiring: after
// AttachScheduler, annotated queries flow from Submit through the Qworker
// into the dispatcher — including for applications added after attach — and
// the policy sees the predicted labels.
func TestAttachSchedulerForwards(t *testing.T) {
	col := &doneCollector{}
	d, err := New(Config{
		Policy:   &LabelPolicy{},
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: func(*Task) error { return nil }}},
		OnDone:   col.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := core.NewService()
	svc.AddApplication("before", 16, nil)
	var explicitGot atomic.Int64
	svc.AddApplication("explicit", 16, func(*core.LabeledQuery) { explicitGot.Add(1) })
	svc.AttachScheduler(d)
	svc.AddApplication("after", 16, nil)
	if svc.Scheduler() == nil {
		t.Fatal("Scheduler() must return the attached plane")
	}
	// A worker registered with an explicit forward keeps it: its queries
	// reach the caller's callback, not the dispatcher.
	if err := svc.Deploy("explicit", classifier("resource", "light")); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit("explicit", "select 1 from explicit"); err != nil {
		t.Fatal(err)
	}
	if explicitGot.Load() != 1 {
		t.Fatalf("explicit forward clobbered by AttachScheduler: %d", explicitGot.Load())
	}
	for _, app := range []string{"before", "after"} {
		if err := svc.Deploy(app, classifier("resource", "light")); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Submit(app, "select 1 from "+app); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.tasks) != 2 { // "before" and "after" only; "explicit" bypassed
		t.Fatalf("tasks forwarded: %d", len(col.tasks))
	}
	for _, task := range col.tasks {
		if task.Class != "light" {
			t.Fatalf("policy missed the predicted label: %+v", task)
		}
	}
	// Detach restores the raw (nil) forward.
	svc.AttachScheduler(nil)
	if svc.Scheduler() != nil {
		t.Fatal("detach must clear the scheduler")
	}
	if _, err := svc.Submit("before", "select 2"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSubmitDeployDispatch is the scheduling plane's -race
// coverage: concurrent serial submits, batch submits, classifier hot-swaps,
// and stats polling against a live dispatcher, then a full drain.
func TestConcurrentSubmitDeployDispatch(t *testing.T) {
	d, err := New(Config{
		Policy:     &LabelPolicy{},
		ClassOrder: []string{"light", "medium", "heavy"},
		QueueCap:   1 << 16,
		SLA:        map[string]time.Duration{"light": time.Millisecond},
		Backends: []Backend{
			{Name: "b1", Slots: 2, Exec: func(*Task) error { return nil }},
			{Name: "b2", Slots: 2, Exec: func(*Task) error { return nil }},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := core.NewService()
	svc.AddApplication("app", 64, nil)
	svc.AttachScheduler(d)
	if err := svc.Deploy("app", classifier("resource", "light")); err != nil {
		t.Fatal(err)
	}

	const (
		submitters = 4
		perWorker  = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := svc.Submit("app", fmt.Sprintf("select %d from t%d", i, g)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sqls := make([]string, 256)
		for i := range sqls {
			sqls[i] = fmt.Sprintf("select batch%d from b", i)
		}
		if _, err := svc.SubmitBatch("app", sqls, 2); err != nil {
			t.Error(err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		classes := []string{"light", "medium", "heavy"}
		for i := 0; i < 50; i++ {
			if err := svc.Deploy("app", classifier("resource", classes[i%3])); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = d.Stats()
		}
	}()
	wg.Wait()
	if err := d.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
	st := d.Stats()
	want := uint64(submitters*perWorker + 256)
	if st.Submitted != want || st.Completed != want || st.Rejected != 0 || st.Shed != 0 {
		t.Fatalf("conservation: %+v (want %d)", st, want)
	}
}

// TestEnqueueAllocsArmed pins the exact allocation count of one query from
// Enqueue through completion with every plane armed, the shape of the bench
// harness's dispatch_armed workload: label policy over 2 backends with a
// no-op executor, SLA targets, deadline, retry, breaker, memory-aware
// admission, a metrics registry, audit to io.Discard and 1% tracing. The
// query is one the tracer does not sample, so no trace allocation counts.
// The 3 are the Task (its retry state and the cancel registry's backing
// array live inline), the attempt's deadline context (which arms no timer
// until an executor watches Done), and the audit event. The affinity bucket
// keeps its backing array when it empties, so it never regrows here.
func TestEnqueueAllocsArmed(t *testing.T) {
	if vec.RaceEnabled {
		t.Skip("allocation profile differs under the race detector")
	}
	reg := obs.NewRegistry()
	auditor := obs.NewAuditor(io.Discard)
	auditor.Register(reg)
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 0.01})
	tracer.Register(reg)
	noop := func(*Task) error { return nil }
	done := make(chan struct{}, 1)
	d, err := New(Config{
		Policy: &LabelPolicy{Route: map[string]string{"c1": "b1", "c2": "b2"}},
		Backends: []Backend{
			{Name: "b1", Slots: 1, Exec: noop, MemoryMB: 1 << 20},
			{Name: "b2", Slots: 1, Exec: noop, MemoryMB: 1 << 20},
		},
		ClassOrder:  []string{"light", "medium", "heavy"},
		SLA:         map[string]time.Duration{"light": 250 * time.Millisecond, "medium": time.Second, "heavy": 30 * time.Second},
		Deadline:    time.Minute,
		Retry:       &RetryConfig{MaxRetries: 2},
		Breaker:     &BreakerConfig{},
		MemoryAware: true,
		Metrics:     reg,
		Audit:       auditor,
		OnDone:      func(*Task) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := labeled("select a from t where x = 1", "light", "c1")
	q.SetLabel("memMB", "64")
	if tracer.Begin(q.App, q.SQL) != nil {
		t.Fatal("pinned query must not be sampled")
	}
	allocs := testing.AllocsPerRun(200, func() {
		q.SetTrace(tracer.Begin(q.App, q.SQL))
		if err := d.Enqueue(q); err != nil {
			t.Fatal(err)
		}
		<-done
	})
	if allocs > 3 {
		t.Fatalf("armed Enqueue through completion allocates %.1f per query, want <= 3", allocs)
	}
}
