package main

// Closed-loop load: conns VQI users, each sending its next request only
// after the previous answer arrived, with no think time. Requests are
// taken from the stream in order; update batches are sent in ordinal
// order so every state the server passes through is a prefix of the
// stream's batches.

import (
	"bytes"
	"hash/maphash"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// record is the client-side outcome of one request.
type record struct {
	idx        int // position in the stream
	kind       opKind
	start, end time.Duration // since the load began
	status     int           // 0 on a transport error
	hash       uint64        // of the response body
	err        string
}

func (r record) latency() time.Duration { return r.end - r.start }
func (r record) ok() bool               { return r.err == "" && r.status >= 200 && r.status < 300 }

type loadResult struct {
	recs   []record // by stream position
	bodies map[uint64][]byte
	// measureFrom/measureTo bound the measured window; requests that
	// started before measureFrom are warm-up.
	measureFrom, measureTo time.Duration
	// slice is the length of each of the measuredSlices equal parts of
	// the measured window; steal is the CPU steal share during each.
	slice     time.Duration
	steal     []float64
	exhausted bool // the stream ran out before the clock did
}

// measuredSlices is how many equal parts the measured window is cut into;
// the end-to-end figures are medians over the calmer half of them (see
// calmest), so a burst of neighbour load moves few of them.
const measuredSlices = 12

// sliceOf returns the measured slice a record started in, or -1.
func (lr *loadResult) sliceOf(r record) int {
	if r.start < lr.measureFrom {
		return -1
	}
	return min(int((r.start-lr.measureFrom)/lr.slice), measuredSlices-1)
}

var bodySeed = maphash.MakeSeed()

// runLoad drives s against base for warmup+measure.
func runLoad(base string, s *stream, conns int, warmup, measure time.Duration) *loadResult {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}

	lr := &loadResult{bodies: map[uint64][]byte{}, measureFrom: warmup, slice: measure / measuredSlices}
	var (
		next     atomic.Int64
		bodyMu   sync.Mutex
		recsMu   sync.Mutex
		updMu    sync.Mutex
		updCond  = sync.NewCond(&updMu)
		updDone  int
		stopAt   = warmup + measure
		began    = time.Now()
		wg       sync.WaitGroup
		lastEnd  atomic.Int64
		outOfOps atomic.Bool
	)
	worker := func() {
		defer wg.Done()
		var local []record
		for time.Since(began) < stopAt {
			i := int(next.Add(1) - 1)
			if i >= len(s.ops) {
				outOfOps.Store(true)
				break
			}
			o := s.ops[i]
			if o.update >= 0 {
				updMu.Lock()
				for updDone != o.update {
					updCond.Wait()
				}
				updMu.Unlock()
			}
			rec := record{idx: i, kind: o.kind, start: time.Since(began)}
			req, _ := http.NewRequest(http.MethodPost, base+o.kind.path(), bytes.NewReader(o.body))
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			var body []byte
			if err == nil {
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				rec.status = resp.StatusCode
			}
			rec.end = time.Since(began)
			if o.update >= 0 {
				updMu.Lock()
				updDone++
				updCond.Broadcast()
				updMu.Unlock()
			}
			if err != nil {
				rec.err = err.Error()
			} else {
				rec.hash = maphash.Bytes(bodySeed, body)
				bodyMu.Lock()
				if _, ok := lr.bodies[rec.hash]; !ok {
					lr.bodies[rec.hash] = body
				}
				bodyMu.Unlock()
			}
			for {
				cur := lastEnd.Load()
				if int64(rec.end) <= cur || lastEnd.CompareAndSwap(cur, int64(rec.end)) {
					break
				}
			}
			local = append(local, rec)
		}
		recsMu.Lock()
		lr.recs = append(lr.recs, local...)
		recsMu.Unlock()
	}
	// Sample CPU steal at every slice boundary.
	sampled := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(sampled)
		var prevTotal, prevSteal float64
		for i := 0; i <= measuredSlices; i++ {
			select {
			case <-time.After(time.Until(began.Add(warmup + time.Duration(i)*lr.slice))):
			case <-done:
				return
			}
			total, steal := cpuTimes()
			if i > 0 {
				lr.steal = append(lr.steal, 100*ratio(steal-prevSteal, total-prevTotal))
			}
			prevTotal, prevSteal = total, steal
		}
	}()
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go worker()
	}
	wg.Wait()
	close(done)
	<-sampled
	sort.Slice(lr.recs, func(i, j int) bool { return lr.recs[i].idx < lr.recs[j].idx })
	lr.measureTo = time.Duration(lastEnd.Load())
	lr.exhausted = outOfOps.Load()
	return lr
}

// post sends one request outside the timed loop and returns status and body.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
