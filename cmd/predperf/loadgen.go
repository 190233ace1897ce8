package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// loadRequest is one scheduled request of an open-loop phase.
type loadRequest struct {
	due  time.Duration // from the phase's start
	path string
	cell servedCell
}

// servedCell is what a /v1/cell or /v1/breakdown response must hold.
type servedCell struct {
	kernel, model, machine string
	breakdown              bool
}

func (c servedCell) path() string {
	ep := "cell"
	if c.breakdown {
		ep = "breakdown"
	}
	return fmt.Sprintf("/v1/%s?kernel=%s&model=%s&machine=%s", ep, c.kernel, c.model, c.machine)
}

// stageDur is one Server-Timing entry.
type stageDur struct {
	name string
	ms   float64
}

// loadResult is one finished request.
type loadResult struct {
	latency time.Duration // from the due time to the end of the body
	lag     time.Duration // how late the generator sent it
	sent    time.Time
	done    time.Time
	status  int // 0 when the transport failed
	cache   string
	reqID   string
	stages  []stageDur
	err     error // transport, status or content failure
}

// phase is a finished open-loop phase.
type phase struct {
	results []loadResult
	start   time.Time
	backlog []int64 // at each request's due time: requests due but not yet picked up by a client worker
}

// backlogMax is the largest send backlog of the phase.
func (ph *phase) backlogMax() int64 {
	var m int64
	for _, b := range ph.backlog {
		m = max(m, b)
	}
	return m
}

// arrivals schedules n Poisson arrivals over window: a Poisson process
// conditioned on n events in the window places them uniformly at random,
// so the phase always ends on time and carries exactly n requests.
func arrivals(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	return dues
}

// newClient is the load generator's HTTP client: keep-alive, at most
// workers connections to the server.
func newClient(workers int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConns:        workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		},
	}
}

// openLoop sends reqs on their schedule through workers client goroutines.
// A request due while every worker is busy waits in the backlog; its
// latency still counts from its due time, so a stall shows in every
// request queued behind it.  check validates a 200 response's body.
func openLoop(client *http.Client, base string, reqs []loadRequest, workers int, check func(loadRequest, []byte) error) *phase {
	ph := &phase{results: make([]loadResult, len(reqs)), backlog: make([]int64, len(reqs))}
	jobs := make(chan int, len(reqs)) // sized to the number of sends: the schedule never blocks
	var picked atomic.Int64
	var wg sync.WaitGroup
	ph.start = time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				picked.Add(1)
				do(client, base, reqs[i], ph.start, &ph.results[i], check)
			}
		}()
	}
	for i, r := range reqs {
		if d := r.due - time.Since(ph.start); d > 0 {
			time.Sleep(d)
		}
		ph.results[i].lag = time.Since(ph.start) - r.due
		ph.backlog[i] = int64(i) - picked.Load()
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return ph
}

func do(client *http.Client, base string, r loadRequest, start time.Time, res *loadResult, check func(loadRequest, []byte) error) {
	res.sent = time.Now()
	defer func() {
		res.done = time.Now()
		res.latency = res.done.Sub(start.Add(r.due))
	}()
	resp, err := client.Get(base + r.path)
	if err != nil {
		res.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.status = resp.StatusCode
	res.cache = resp.Header.Get("X-Cache")
	res.reqID = resp.Header.Get("X-Request-Id")
	res.stages = parseServerTiming(resp.Header.Get("Server-Timing"))
	switch {
	case err != nil:
		res.err = err
	case resp.StatusCode != http.StatusOK:
		res.err = fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, strings.TrimSpace(string(body)))
	default:
		res.err = check(r, body)
	}
}

// parseServerTiming reads `name;dur=ms, ...` in header order, dropping
// the request's own total.
func parseServerTiming(h string) []stageDur {
	var out []stageDur
	for _, e := range strings.Split(h, ",") {
		name, params, _ := strings.Cut(strings.TrimSpace(e), ";")
		v, ok := strings.CutPrefix(strings.TrimSpace(params), "dur=")
		if name == "" || name == "total" || !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out = append(out, stageDur{name, f})
		}
	}
	return out
}

// closedLoop keeps each of workers client goroutines sending back to back,
// cycling through reqs, until window has passed; every request's latency
// counts from when it was sent.
func closedLoop(client *http.Client, base string, reqs []loadRequest, workers int, window time.Duration, check func(loadRequest, []byte) error) *phase {
	ph := &phase{start: time.Now()}
	deadline := ph.start.Add(window)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []loadResult
			for i := w; time.Now().Before(deadline); i += workers {
				r := reqs[i%len(reqs)]
				var res loadResult
				sent := time.Now()
				r.due = sent.Sub(ph.start)
				do(client, base, r, ph.start, &res, check)
				mine = append(mine, res)
			}
			mu.Lock()
			ph.results = append(ph.results, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return ph
}

// latencies returns the phase's request latencies in milliseconds.
func (ph *phase) latencies() []float64 {
	out := make([]float64, len(ph.results))
	for i, r := range ph.results {
		out[i] = ms(r.latency)
	}
	return out
}

// wall is the time from the phase's start to its last response.
func (ph *phase) wall() time.Duration {
	var end time.Time
	for _, r := range ph.results {
		if r.done.After(end) {
			end = r.done
		}
	}
	return end.Sub(ph.start)
}
