// Command loadbench is the end-to-end benchmark of dpeserver. It starts
// a real dpeserver child process on loopback, drives it from this
// process through the public service.Client with one closed-loop
// client, checks every output against the in-process dpe.Provider, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// read from the server's own /metrics (traced run). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	loadbench --workload matrix-bulk|append-mine|neighbors-churn \
//	  --seed 1 --seconds 25 --trace 0|1 [--server .bench_build/dpeserver]
//
// See README.md in this directory for the workloads, the metrics and
// which layer each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/service"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string
	workDir   string
	sizes     sizes
}

func parseOptions(args []string) (*options, error) {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	name := fs.String("workload", "", "workload: matrix-bulk, append-mine or neighbors-churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "nominal length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	bin := fs.String("server", filepath.Join(".bench_build", "dpeserver"), "dpeserver binary")
	workDir := fs.String("work-dir", ".bench_run", "parent of each run's fresh data directory")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if !slices.Contains(workloadNames, *name) {
		return nil, fmt.Errorf("--workload must be one of %v, got %q", workloadNames, *name)
	}
	if *seconds < 1 {
		return nil, fmt.Errorf("--seconds must be positive, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return &options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		serverBin: *bin, workDir: *workDir, sizes: fullSizes}, nil
}

// setupRuns is how many times an untraced run sets up from scratch;
// setup_s is their median.
const setupRuns = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(stderr, "loadbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer killAllServers()
	rep, err := bench(ctx, opts)
	if err != nil {
		fmt.Fprintln(stderr, "loadbench:", err)
		return 1
	}
	rep.print(stdout)
	if !rep.Correct {
		fmt.Fprintln(stderr, "loadbench: output mismatch")
		return 1
	}
	return 0
}

// pass is one server lifetime driven by one client: set-up, the timed
// schedule, and the checks after it.
type pass struct {
	opts   *options
	srv    *server
	client *service.Client
	tracer *tracer // nil when untraced
	rec    *recorder
	replay time.Duration // restart-to-ready of the durability check
	// peaks holds the server's peak RSS of each segment of the timed
	// phase; peak_rss_mb is their median, steadier than one maximum
	// over the whole run.
	peaks []int64
}

// rssSegments is how many segments a timed phase's peak RSS is split
// into.
const rssSegments = 5

// markPeak ends one peak-RSS segment: it records the server's peak RSS
// since the previous mark and resets it. The first call, before the
// timed phase, only resets.
func (p *pass) markPeak(record bool) error {
	st, err := p.srv.proc()
	if err != nil {
		return err
	}
	if record {
		p.peaks = append(p.peaks, st.peakRSS)
	}
	return p.srv.resetPeak()
}

// startPass starts a server on a fresh data directory and a client for
// it.
func startPass(ctx context.Context, opts *options, w benchWorkload, store string, traced bool) (*pass, error) {
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return nil, err
	}
	if store == "segments" {
		if err := checkRoom(opts.workDir, w.journalBytes()); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(opts.workDir, opts.workload+"-")
	if err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, opts.serverBin, dir, store, w.serverFlags())
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	p := &pass{opts: opts, srv: srv, rec: newRecorder()}
	var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if traced {
		p.tracer = &tracer{base: rt}
		rt = p.tracer
	}
	p.client = service.NewClient(srv.base, service.WithHTTPClient(&http.Client{Transport: rt}))
	return p, nil
}

func (p *pass) close() {
	p.srv.close()
	os.Remove(p.opts.workDir) // only succeeds once the last data directory is gone
}

// setUp is the timed set-up: owner-side encryption, server start to
// ready, sessions, uploads and the first cold request per log.
func setUp(ctx context.Context, opts *options, w benchWorkload, store string, traced bool) (*pass, time.Duration, error) {
	start := time.Now()
	if err := w.encrypt(); err != nil {
		return nil, 0, fmt.Errorf("encrypting: %w", err)
	}
	p, err := startPass(ctx, opts, w, store, traced)
	if err != nil {
		return nil, 0, err
	}
	if err := w.warm(ctx, p); err != nil {
		p.close()
		return nil, 0, fmt.Errorf("warming: %w", err)
	}
	return p, time.Since(start), nil
}

// measured is what one pass's timed phase left behind.
type measured struct {
	rec            *recorder
	before, after  scrape
	cpuBefore      procStat
	cpuAfter       procStat
	journalGrowth  int64
	peaks          []int64
	calls          []httpCall
	replay         time.Duration
	durabilityDone bool
}

// measure runs the timed schedule between two scrapes.
func measure(ctx context.Context, w benchWorkload, p *pass) (*measured, error) {
	if err := w.references(ctx); err != nil {
		return nil, fmt.Errorf("in-process references: %w", err)
	}
	m := &measured{rec: p.rec}
	var err error
	if m.before, err = scrapeMetrics(ctx, p.srv.metricsURL); err != nil {
		return nil, err
	}
	if m.cpuBefore, err = p.srv.proc(); err != nil {
		return nil, err
	}
	dirBefore, err := dirBytes(p.srv.dataDir)
	if err != nil {
		return nil, err
	}
	if p.tracer != nil {
		p.tracer.take() // set-up traffic is not the timed phase's
	}
	if err := p.markPeak(false); err != nil {
		return nil, err
	}
	if err := w.run(ctx, p); err != nil {
		return nil, err
	}
	if err := p.markPeak(true); err != nil {
		return nil, err
	}
	m.peaks = p.peaks
	if m.cpuAfter, err = p.srv.proc(); err != nil {
		return nil, err
	}
	if m.after, err = scrapeMetrics(ctx, p.srv.metricsURL); err != nil {
		return nil, err
	}
	dirAfter, err := dirBytes(p.srv.dataDir)
	if err != nil {
		return nil, err
	}
	m.journalGrowth = dirAfter - dirBefore
	if p.tracer != nil {
		m.calls = p.tracer.take()
	}
	return m, nil
}

// onePass sets up once and measures.
func onePass(ctx context.Context, opts *options, w benchWorkload, store string, traced bool) (*measured, error) {
	p, _, err := setUp(ctx, opts, w, store, traced)
	if err != nil {
		return nil, err
	}
	defer p.close()
	return measure(ctx, w, p)
}

// durabilityPass runs the workload's crash-recovery check on a pass of
// its own, with a journal of one tenant. Restarting the timed pass's
// server instead would replay every tenant's journal, about 6 s each,
// because replay decodes every journaled mining state.
func durabilityPass(ctx context.Context, opts *options, w benchWorkload, d durable) (*measured, error) {
	p, _, err := setUp(ctx, opts, w, "segments", false)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if err := d.checkDurability(ctx, p); err != nil {
		return nil, err
	}
	return &measured{rec: p.rec, replay: p.replay, durabilityDone: true}, nil
}

func bench(ctx context.Context, opts *options) (*report, error) {
	w, err := newWorkload(opts.workload, opts.seed, opts.sizes, opts.seconds)
	if err != nil {
		return nil, err
	}
	rep := &report{opts: opts, w: w, Metrics: make(map[string]metric)}
	if !opts.trace {
		var setups []float64
		var p *pass
		for i := 0; i < setupRuns; i++ {
			if p != nil {
				p.close()
			}
			var d time.Duration
			if p, d, err = setUp(ctx, opts, w, "segments", false); err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		m, err := measure(ctx, w, p)
		p.close()
		if err != nil {
			return nil, err
		}
		rep.passes = append(rep.passes, m)
		rep.endToEnd(m, setups)
		if d, ok := w.(durable); ok {
			dm, err := durabilityPass(ctx, opts, w, d)
			if err != nil {
				return nil, err
			}
			rep.passes = append(rep.passes, dm)
		}
		return rep.finish(), nil
	}
	// Traced: an untraced pass for the overhead baseline, the traced
	// pass, and for append-mine the same traced inputs against a
	// -store null server, whose write latency journal.write_ms is
	// measured against.
	plain, err := onePass(ctx, opts, w, "segments", false)
	if err != nil {
		return nil, err
	}
	traced, err := onePass(ctx, opts, w, "segments", true)
	if err != nil {
		return nil, err
	}
	rep.passes = append(rep.passes, plain, traced)
	var null *measured
	if _, ok := w.(durable); ok {
		if null, err = onePass(ctx, opts, w, "null", true); err != nil {
			return nil, err
		}
		rep.passes = append(rep.passes, null)
	}
	rep.perLayer(plain, traced, null)
	return rep.finish(), nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result: the JSON object on the last line, plus
// the human-readable lines before it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	opts   *options
	w      benchWorkload
	passes []*measured
	lines  []string
	// counts are the exactly repeatable work counters of the traced
	// pass, for the benchmark's own test.
	counts map[string]float64
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) finish() *report {
	r.Correct = true
	for _, m := range r.passes {
		r.Attempted += m.rec.attempted
		r.Failed += m.rec.failed
		for _, p := range m.rec.problems {
			r.linef("MISMATCH %s", p)
		}
		if m.durabilityDone {
			r.linef("durability: one tenant's cycle, SIGKILL, restart on the same data dir and replay to ready in %.3f s; grown log and warm append_mine checked", m.replay.Seconds())
		}
	}
	if r.Failed > 0 || r.Attempted == 0 {
		r.Correct = false
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opLines prints every operation type's latency.
func (r *report) opLines(label string, m *measured) {
	kinds := make([]string, 0, len(m.rec.lat))
	for k := range m.rec.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		st := summarize(m.rec.lat[k])
		r.linef("%s op %-16s n=%-5d p50=%9.3f ms  tail=%9.3f ms (%s)", label, k, st.n, st.p50, st.tail, st.tailNote)
	}
}

// endToEnd fills the untraced run's metrics.
func (r *report) endToEnd(m *measured, setups []float64) {
	rec := m.rec
	done := float64(rec.completed())
	sorted := slices.Clone(setups)
	sort.Float64s(sorted)
	r.set("setup_s", "s", median(sorted))
	key := summarize(rec.lat[r.w.keyOp()])
	r.set("p50_ms", "ms", key.p50)
	r.set("server_cpu_ms_per_op", "ms", ms(m.cpuAfter.cpu-m.cpuBefore.cpu)/done)
	peaks := make([]float64, len(m.peaks))
	for i, b := range m.peaks {
		peaks[i] = float64(b) / (1 << 20)
	}
	sort.Float64s(peaks)
	r.set("peak_rss_mb", "MB", median(peaks))

	r.linef("loadbench workload=%s seed=%d seconds=%d trace=0 gomaxprocs(server)=%d", r.opts.workload, r.opts.seed, r.opts.seconds, runtime.NumCPU())
	r.linef("server flags: %v", r.w.serverFlags())
	r.linef("setup_s runs: %.4f (median reported)", setups)
	r.linef("peak RSS per segment of the timed phase, MB: %.4f (median reported)", peaks)
	r.opLines("timed", m)
	// The tail and the throughput are printed but are not metrics: under
	// host contention their ten-seed spread went past the largest bound.
	r.linef("key op %q: p50_ms; tail %.4f ms is %s", r.w.keyOp(), key.tail, key.tailNote)
	r.linef("ops_per_s = %.4f completed operations per second of operation time", done/rec.busy.Seconds())
	r.linef("failed_ratio = %d/%d = %.4f", rec.failed, rec.attempted, float64(rec.failed)/float64(max(rec.attempted, 1)))
}

// perLayer fills the traced run's metrics. Per-op values divide by the
// traced pass's completed operations of every type.
func (r *report) perLayer(plain, traced, null *measured) {
	rec := traced.rec
	ops := float64(max(rec.completed(), 1))
	b, a := traced.before, traced.after
	sec := func(key string) float64 { return delta(b, a, key) * 1000 / ops } // seconds histogram sum -> ms per op
	per := func(v float64) float64 { return v / ops }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var resp, readWait, decode float64
	for _, c := range traced.calls {
		resp += float64(c.respBytes)
		readWait += ms(c.readWait)
		decode += ms(c.decode)
	}
	route := deltaAll(b, a, "dpe_http_request_duration_seconds_sum") * 1000 / ops
	stage := func(name string) float64 { return sec(`dpe_stage_duration_seconds_sum{stage="` + name + `"}`) }
	attributed := 0.0
	for _, st := range r.w.stages() {
		attributed += stage(st)
	}
	hits, misses := delta(b, a, "dpe_cache_hits_total"), delta(b, a, "dpe_cache_misses_total")
	evictions, dedups := delta(b, a, `dpe_cache_evictions_total{cause="budget"}`), delta(b, a, "dpe_singleflight_dedups_total")
	mhits, mmisses := delta(b, a, "dpe_mine_state_hits_total"), delta(b, a, "dpe_mine_state_misses_total")

	r.set("service.wire.response_bytes", "bytes", per(resp))
	r.set("service.wire.bytes_per_entry", "bytes", ratio(resp, rec.counts["entries"]))
	r.set("service.client.read_wait_ms", "ms", per(readWait))
	r.set("service.client.decode_ms", "ms", per(decode))
	r.set("service.server.route_ms", "ms", route)
	r.set("service.server.unattributed_ms", "ms", route-attributed)
	r.set("service.cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	r.set("service.cache.evictions", "count", per(evictions))
	r.set("dpe.prepare_ms", "ms", stage("prepare"))
	r.set("dpe.prepare_calls", "count", per(delta(b, a, `dpe_stage_duration_seconds_count{stage="prepare"}`)))
	r.set("dpe.append_extend_ms", "ms", stage("append_extend"))
	r.set("distance.matrix_ms", "ms", stage("matrix"))
	r.set("distance.append_rows_ms", "ms", stage("append_rows"))
	r.set("distance.pairs", "count", per(rec.counts["pairs"]))
	r.set("approx.index_ms", "ms", stage("approx_index"))
	r.set("approx.rerank_ms", "ms", stage("rerank"))
	r.set("approx.candidates_per_query", "count", ratio(rec.counts["candidates"], rec.counts["neighbors"]))
	r.set("mining.mine_delta_ms", "ms", stage("mine_delta"))
	r.set("mining.pairs_computed", "count", per(rec.counts["mine_pairs"]))
	r.set("mining.warm_ratio", "ratio", ratio(rec.counts["warm"], rec.counts["appends"]))
	r.set("mining.cold_fallbacks", "count", per(rec.counts["cold_fallbacks"]))
	r.set("journal.records", "count", per(delta(b, a, "dpe_store_records_written_total")))
	r.set("journal.bytes_per_op", "bytes", per(float64(traced.journalGrowth)))
	r.set("journal.bytes_per_user_byte", "ratio", ratio(float64(traced.journalGrowth), rec.counts["query_bytes"]))
	r.set("store.fsync_ms", "ms", sec("dpe_store_fsync_seconds_sum"))
	journalWrite := 0.0
	if null != nil {
		key := r.w.keyOp()
		journalWrite = summarize(rec.lat[key]).p50 - summarize(null.rec.lat[key]).p50
	}
	r.set("journal.write_ms", "ms", journalWrite)
	meanOp := func(m *measured) float64 { return ms(m.rec.busy) / float64(max(m.rec.completed(), 1)) }
	overhead := 100 * (meanOp(traced) - meanOp(plain)) / meanOp(plain)
	r.set("bench.trace_overhead_pct", "%", overhead)

	r.counts = map[string]float64{
		"ops":            float64(rec.completed()),
		"pairs":          rec.counts["pairs"],
		"entries":        rec.counts["entries"],
		"candidates":     rec.counts["candidates"],
		"mine_pairs":     rec.counts["mine_pairs"],
		"warm":           rec.counts["warm"],
		"response_bytes": resp,
		"cache_hits":     hits,
		"cache_misses":   misses,
		"evictions":      evictions,
		"dedups":         dedups,
		"prepare_calls":  delta(b, a, `dpe_stage_duration_seconds_count{stage="prepare"}`),
		"journal_recs":   delta(b, a, "dpe_store_records_written_total"),
		"journal_bytes":  float64(traced.journalGrowth),
	}

	r.linef("loadbench workload=%s seed=%d seconds=%d trace=1 gomaxprocs(server)=%d", r.opts.workload, r.opts.seed, r.opts.seconds, runtime.NumCPU())
	r.opLines("untraced", plain)
	r.opLines("traced", traced)
	if null != nil {
		r.opLines("null-store", null)
	}
	r.linef("tracing overhead: mean op %.3f ms traced vs %.3f ms untraced (%+.2f%%)", meanOp(traced), meanOp(plain), overhead)
	// Both read 0 on matrix-bulk and append-mine, so they are printed
	// but are not metrics: one closed-loop client never sends the
	// concurrent identical requests singleflight merges, and every
	// append_mine mines a new grown log, so its warm start from the
	// base log's state counts as a mine-state miss.
	r.linef("registry: %.0f singleflight dedups; mine-state cache %.0f hits, %.0f misses", dedups, mhits, mmisses)
	r.linef("server route %.3f ms/op = provider stages %.3f + unattributed %.3f (response encode, journal, handler)", route, attributed, route-attributed)
}

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	out, err := json.Marshal(r)
	if err != nil {
		out, _ = json.Marshal(map[string]any{"correct": false, "attempted": max(r.Attempted, 1), "failed": max(r.Failed, 1), "metrics": map[string]any{}})
	}
	fmt.Fprintln(w, string(out))
}
