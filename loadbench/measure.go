package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// recorder times the operations of one closed-loop client. Each
// operation's latency is kept under its type, and busy is the sum of
// all operation intervals: output checks between operations run
// outside it.
type recorder struct {
	lat       map[string][]time.Duration
	busy      time.Duration
	attempted int
	failed    int
	problems  []string
	// counts are deterministic work counters the workload reports
	// from responses and from its own schedule.
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{lat: make(map[string][]time.Duration), counts: make(map[string]float64)}
}

// do runs one timed operation of the given type. A failed operation is
// counted and its error returned.
func (r *recorder) do(kind string, op func() error) error {
	start := time.Now()
	err := op()
	d := time.Since(start)
	r.attempted++
	r.busy += d
	if err != nil {
		r.failed++
		return fmt.Errorf("%s: %w", kind, err)
	}
	r.lat[kind] = append(r.lat[kind], d)
	return nil
}

// mismatch records an operation whose output was wrong: it counts as
// failed although the call itself succeeded.
func (r *recorder) mismatch(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) completed() int { return r.attempted - r.failed }

// latencyStats summarises one operation type: the median and the tail,
// which is the highest percentile with at least ten samples beyond it
// (the 11th-largest sample).
type latencyStats struct {
	n        int
	p50      float64 // ms
	tail     float64 // ms
	tailNote string  // which percentile tail is, and the sample count
}

func summarize(samples []time.Duration) latencyStats {
	n := len(samples)
	if n == 0 {
		return latencyStats{}
	}
	ms := make([]float64, n)
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	st := latencyStats{n: n, p50: median(ms)}
	if n > 10 {
		st.tail = ms[n-11]
		st.tailNote = fmt.Sprintf("p%.1f, 10 of %d samples beyond", 100*float64(n-10)/float64(n), n)
	} else {
		st.tail = ms[n-1]
		st.tailNote = fmt.Sprintf("max, only %d samples", n)
	}
	return st
}

// median of sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// scrape is one read of the server's /metrics: every sample line keyed
// by its series name and labels, e.g.
// `dpe_stage_duration_seconds_sum{stage="matrix"}`.
type scrape map[string]float64

func scrapeMetrics(ctx context.Context, url string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: HTTP %d", url, resp.StatusCode)
	}
	out := make(scrape)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: bad sample %q", url, line)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	return out, nil
}

// delta is after minus before for one series.
func delta(before, after scrape, key string) float64 {
	return after[key] - before[key]
}

// deltaAll is after minus before summed over every labelled series of
// one metric name.
func deltaAll(before, after scrape, name string) float64 {
	total := 0.0
	for k, v := range after {
		if strings.HasPrefix(k, name+"{") {
			total += v - before[k]
		}
	}
	return total
}

// tracer is the client-side instrument of a traced run: an
// http.RoundTripper handed to service.Client through WithHTTPClient.
// For each request it times the response body's Read calls (waiting on
// the wire) and the time from headers to end of body outside those
// calls (the client's own decoding), and counts response bytes.
type tracer struct {
	base http.RoundTripper

	mu    sync.Mutex
	calls []httpCall
}

type httpCall struct {
	respBytes int64
	readWait  time.Duration
	decode    time.Duration
}

func (t *tracer) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	headers := time.Now()
	if err != nil {
		t.record(httpCall{})
		return nil, err
	}
	resp.Body = &timedBody{rc: resp.Body, t: t, headers: headers}
	return resp, nil
}

func (t *tracer) record(c httpCall) {
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

// take returns and clears the calls recorded so far.
func (t *tracer) take() []httpCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.calls
	t.calls = nil
	return out
}

type timedBody struct {
	rc      io.ReadCloser
	t       *tracer
	call    httpCall
	headers time.Time
	done    bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := b.rc.Read(p)
	end := time.Now()
	b.call.readWait += end.Sub(start)
	b.call.respBytes += int64(n)
	if err == io.EOF {
		b.finish(end)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish(time.Now())
	return b.rc.Close()
}

// finish records the call at end of body or at Close, whichever comes
// first (a JSON decoder may stop before reading EOF).
func (b *timedBody) finish(end time.Time) {
	if b.done {
		return
	}
	b.done = true
	b.call.decode = end.Sub(b.headers) - b.call.readWait
	b.t.record(b.call)
}
