package qcache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHitMissAndLRU(t *testing.T) {
	c := New[int](2)
	calls := 0
	get := func(key string, v int) int {
		return c.Do(key, func() (int, bool) { calls++; return v, true })
	}
	if get("a", 1) != 1 || get("a", 99) != 1 {
		t.Fatal("a must be computed once and served from cache")
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	get("b", 2)
	get("c", 3) // evicts a (LRU)
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if get("a", 4) != 4 {
		t.Fatal("a was evicted; must recompute")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 4 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestUncacheableNotStored(t *testing.T) {
	c := New[int](4)
	calls := 0
	for i := 0; i < 3; i++ {
		got := c.Do("k", func() (int, bool) { calls++; return 7, false })
		if got != 7 {
			t.Fatalf("got %d", got)
		}
	}
	if calls != 3 {
		t.Fatalf("uncacheable result was stored (calls = %d)", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestZeroCapacityDedupsOnly(t *testing.T) {
	c := New[int](0)
	c.Do("k", func() (int, bool) { return 1, true })
	if c.Len() != 0 {
		t.Fatal("capacity 0 must not store")
	}
}

func TestSingleFlight(t *testing.T) {
	c := New[int](4)
	var calls int32
	start := make(chan struct{})
	inFn := make(chan struct{})
	go c.Do("k", func() (int, bool) {
		close(inFn)
		<-start
		atomic.AddInt32(&calls, 1)
		return 42, true
	})
	<-inFn // leader is inside fn; everyone else must wait, not recompute
	var wg sync.WaitGroup
	results := make([]int, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Do("k", func() (int, bool) {
				atomic.AddInt32(&calls, 1)
				return 42, true
			})
		}(i)
	}
	// Give the waiters a chance to register, then release the leader.
	for {
		if _, _, d := c.Stats(); d >= 1 {
			break
		}
	}
	close(start)
	wg.Wait()
	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Fatalf("fn ran %d times; single-flight must run it once", n)
	}
	for i, r := range results {
		if r != 42 {
			t.Fatalf("result[%d] = %d", i, r)
		}
	}
}

func TestResetInvalidates(t *testing.T) {
	c := New[int](4)
	c.Do("k", func() (int, bool) { return 1, true })
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("reset must drop entries")
	}
	got := c.Do("k", func() (int, bool) { return 2, true })
	if got != 2 {
		t.Fatalf("got %d; post-reset Do must recompute", got)
	}
}

func TestResetBarsInFlightStore(t *testing.T) {
	c := New[int](4)
	inFn := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int)
	go func() {
		done <- c.Do("k", func() (int, bool) {
			close(inFn)
			<-release
			return 1, true
		})
	}()
	<-inFn
	c.Reset() // the flight's epoch is now stale
	close(release)
	if v := <-done; v != 1 {
		t.Fatalf("waiter got %d", v)
	}
	if c.Len() != 0 {
		t.Fatal("stale flight stored its result past a Reset")
	}
	// A fresh Do must recompute, not see a stale entry or stale flight.
	if v := c.Do("k", func() (int, bool) { return 2, true }); v != 2 {
		t.Fatalf("post-reset Do = %d", v)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New[int](8)
	var wg sync.WaitGroup
	keys := []string{"a", "b", "c", "d"}
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := keys[i%len(keys)]
			v := c.Do(k, func() (int, bool) { return i % len(keys), true })
			if v != i%len(keys) {
				t.Errorf("key %s: got %d", k, v)
			}
			if i%16 == 0 {
				c.Reset()
			}
		}(i)
	}
	wg.Wait()
}

// TestMetricsZeroLookups: a cache that has never been queried must report
// a well-defined zero hit ratio — never NaN from 0/0, which would poison
// any JSON metrics endpoint exporting it (NaN is not representable in
// JSON).
func TestMetricsZeroLookups(t *testing.T) {
	m := New[int](4).Metrics()
	if m.Hits != 0 || m.Misses != 0 {
		t.Fatalf("fresh cache reports traffic: %+v", m)
	}
	if m.HitRatio != 0 {
		t.Fatalf("zero-lookup HitRatio = %v, want exactly 0", m.HitRatio)
	}
	if m.HitRatio != m.HitRatio {
		t.Fatal("zero-lookup HitRatio is NaN")
	}
}

// TestMetricsHitRatio: the ratio tracks Hits/(Hits+Misses) once traffic
// exists.
func TestMetricsHitRatio(t *testing.T) {
	c := New[int](4)
	c.Do("k", func() (int, bool) { return 1, true }) // miss
	c.Do("k", func() (int, bool) { return 1, true }) // hit
	c.Do("k", func() (int, bool) { return 1, true }) // hit
	m := c.Metrics()
	if want := 2.0 / 3.0; m.HitRatio != want {
		t.Fatalf("HitRatio = %v, want %v", m.HitRatio, want)
	}
}

// TestDoPanicDoesNotWedge: when fn panics, the leader re-raises the
// panic, a waiter on the same flight is released (re-raising it too)
// instead of blocking forever, and the next Do on the key computes afresh
// and caches.
func TestDoPanicDoesNotWedge(t *testing.T) {
	c := New[int](4)
	// do runs c.Do on its own goroutine and reports its value or the
	// panic it raised.
	type outcome struct {
		val      int
		panicVal any
	}
	do := func(fn func() (int, bool)) <-chan outcome {
		out := make(chan outcome, 1)
		go func() {
			var o outcome
			defer func() {
				o.panicVal = recover()
				out <- o
			}()
			o.val = c.Do("k", fn)
		}()
		return out
	}
	wait := func(what string, ch <-chan outcome) outcome {
		t.Helper()
		select {
		case o := <-ch:
			return o
		case <-time.After(2 * time.Second):
			t.Fatalf("%s still blocked after 2s: the flight wedged", what)
			return outcome{}
		}
	}

	entered, release := make(chan struct{}), make(chan struct{})
	leader := do(func() (int, bool) {
		close(entered)
		<-release
		panic("boom")
	})
	<-entered
	waiter := do(func() (int, bool) { return -1, true })
	for deadline := time.Now().Add(2 * time.Second); ; {
		if _, _, dedups := c.Stats(); dedups == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the leader's flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if o := wait("leader", leader); o.panicVal != "boom" {
		t.Fatalf("leader: got %+v, want the panic re-raised", o)
	}
	if o := wait("waiter", waiter); o.panicVal != nil && o.panicVal != "boom" {
		t.Fatalf("waiter: got %+v", o)
	}
	calls := 0
	fresh := func() (int, bool) { calls++; return 7, true }
	for i := 0; i < 2; i++ {
		if o := wait("next Do", do(fresh)); o.panicVal != nil || o.val != 7 {
			t.Fatalf("next Do #%d: got %+v, want 7", i, o)
		}
	}
	if calls != 1 || c.Len() != 1 {
		t.Fatalf("after the panic: %d computations, %d entries; want 1 and 1", calls, c.Len())
	}
}
