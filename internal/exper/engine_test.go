package exper

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// runQueue runs the queue to completion.
func runQueue(ctx context.Context, workers int, costs []int64, run func(task int)) {
	startQueue(ctx, workers, costs, run)()
}

// TestQueueRunsEveryTaskOnce drives the queue with heavily skewed costs at
// every pool width, including more workers than tasks and no tasks at all,
// and requires every task to run exactly once.
func TestQueueRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 7, 100} {
			costs := make([]int64, n)
			for i := range costs {
				// A few huge tasks and a long tail of tiny ones.
				if i%17 == 0 {
					costs[i] = 1_000_000
				} else {
					costs[i] = int64(1 + i%5)
				}
			}
			ran := make([]atomic.Int32, n)
			runQueue(context.Background(), workers, costs, func(i int) {
				ran[i].Add(1)
			})
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestQueueClaimsByDescendingCost pins the claim order: one worker runs the
// tasks in descending cost order, ties in index order; and with every worker
// parked inside its first task, the tasks started are exactly the costliest
// ones.
func TestQueueClaimsByDescendingCost(t *testing.T) {
	const n = 100
	costs := make([]int64, n)
	for i := range costs {
		costs[i] = int64(i * 37 % n / 4) // shuffled, four tasks per cost
	}
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return costs[want[a]] > costs[want[b]] })

	var got []int
	runQueue(context.Background(), 1, costs, func(i int) { got = append(got, i) })
	if !slices.Equal(got, want) {
		t.Fatalf("one worker ran %v, want %v", got, want)
	}

	for _, workers := range []int{2, 4} {
		release := make(chan struct{})
		var entered sync.WaitGroup
		entered.Add(workers)
		var mu sync.Mutex
		var first []int
		wait := startQueue(context.Background(), workers, costs, func(i int) {
			mu.Lock()
			parked := len(first) < workers
			if parked {
				first = append(first, i)
			}
			mu.Unlock()
			if parked {
				entered.Done()
				<-release
			}
		})
		entered.Wait() // every worker is inside its first task
		mu.Lock()
		slices.Sort(first)
		top := slices.Clone(want[:workers])
		slices.Sort(top)
		mu.Unlock()
		if !slices.Equal(first, top) {
			t.Errorf("workers=%d started %v first, want the costliest %v", workers, first, top)
		}
		close(release)
		wait()
	}
}

// TestQueueCancelSkipsQueued pins the cancellation contract: once a worker
// observes the context cancelled, it exits without claiming another task —
// a cancelled request's cells are skipped, not run and discarded. Both
// workers are parked inside in-flight tasks when the cancel lands, so any
// further task start would be a task started strictly after its worker
// could observe the cancellation.
func TestQueueCancelSkipsQueued(t *testing.T) {
	const n = 64
	costs := make([]int64, n)
	for i := range costs {
		costs[i] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(2)
	var started atomic.Int32
	wait := startQueue(ctx, 2, costs, func(i int) {
		if started.Add(1) <= 2 {
			entered.Done()
		}
		<-release
	})
	entered.Wait() // both workers are mid-task
	cancel()       // cancellation is observable before any next claim
	close(release)
	wait()
	if got := started.Load(); got != 2 {
		t.Fatalf("%d tasks started; want exactly the 2 in-flight ones (queued tasks must be skipped)", got)
	}

	// A single worker honors a pre-cancelled context too.
	pre, stop := context.WithCancel(context.Background())
	stop()
	ran := 0
	runQueue(pre, 1, costs, func(i int) { ran++ })
	if ran != 0 {
		t.Fatalf("one worker ran %d tasks under a cancelled context", ran)
	}
}

// TestWarmCellCost sanity-checks the queue-ordering cost model:
// measurement cells dominate prepares, longer sources cost more.
func TestWarmCellCost(t *testing.T) {
	r := New()
	b := r.Benchmarks[0]
	prep := warmCell{bench: b, memLat: 2, task: taskPrepare}
	meas := warmCell{bench: b, memLat: 2, task: taskMeasure}
	if meas.cost() <= prep.cost() {
		t.Errorf("measure cost %d not above prepare cost %d", meas.cost(), prep.cost())
	}
	long, short := r.Benchmarks[0], r.Benchmarks[0]
	for _, cand := range r.Benchmarks {
		if len(cand.Source) > len(long.Source) {
			long = cand
		}
		if len(cand.Source) < len(short.Source) {
			short = cand
		}
	}
	if len(long.Source) > len(short.Source) {
		lc := warmCell{bench: long, memLat: 2, task: taskMeasure}
		sc := warmCell{bench: short, memLat: 2, task: taskMeasure}
		if lc.cost() <= sc.cost() {
			t.Errorf("longer source cost %d not above shorter %d", lc.cost(), sc.cost())
		}
	}
}
