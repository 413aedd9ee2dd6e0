package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"time"

	dpe "repro"
	"repro/internal/mining"
	"repro/internal/service"
	"repro/internal/workload"
)

// sizes fixes every input size and the length of each workload's timed
// schedule. A schedule is a fixed, seed-determined list of operations,
// its length the run's --seconds times a nominal rate measured on a
// 2-core machine, so two runs with one seed do identical work and the
// server's counters repeat exactly.
type sizes struct {
	matrixN      int     // matrix-bulk: log length
	matrixPerSec float64 // matrix-bulk: nominal DistanceMatrix calls per second

	baseN         int     // append-mine: base log length
	rounds        int     // append-mine: AppendMine calls per tenant
	appendK       int     // append-mine: queries per AppendMine
	readsPerRound int     // append-mine: Neighbors calls after each append
	rowsPerRound  int     // append-mine: Distances calls after each append
	tenantSec     float64 // append-mine: nominal seconds per tenant cycle

	logs        int     // neighbors-churn: logs in the session
	logN        int     // neighbors-churn: queries per log
	churnPerSec float64 // neighbors-churn: nominal Neighbors calls per second

	neighborsK int
}

// fullSizes are the benchmark's sizes. Append-mine's writes are bound
// by journaling: each one writes the whole mining state, about 20 bytes
// per matrix entry, at some 60 MB/s. Its n=400 base and the row reads
// that fill most of each round keep a 25-second pass's journal near
// 250 MB.
var fullSizes = sizes{
	matrixN: 600, matrixPerSec: 6,
	baseN: 400, rounds: 12, appendK: 16, readsPerRound: 8, rowsPerRound: 340, tenantSec: 6.25,
	logs: 16, logN: 1000, churnPerSec: 120,
	neighborsK: 10,
}

// tinySizes keep every mechanism of the full sizes (cache pressure
// included) at a size the benchmark's own test runs in seconds.
var tinySizes = sizes{
	matrixN: 40, matrixPerSec: 4,
	baseN: 60, rounds: 2, appendK: 4, readsPerRound: 2, rowsPerRound: 4, tenantSec: 1,
	logs: 4, logN: 80, churnPerSec: 30,
	neighborsK: 5,
}

// dbscanSpec is append-mine's mining spec: exact incremental DBSCAN.
var dbscanSpec = dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.3, MinPts: 4}

// workloadNames lists every workload. BENCHMARK.json runs the first
// two; README.md says why neighbors-churn is left out of it.
var workloadNames = []string{"matrix-bulk", "append-mine", "neighbors-churn"}

// benchWorkload is one traffic mix. Generation (newWorkload) is not
// timed; encrypt, the server start and warm together are set-up; run is
// the timed schedule.
type benchWorkload interface {
	// encrypt performs the owner-side encryption of every log.
	encrypt() error
	// serverFlags are the workload's extra dpeserver flags.
	serverFlags() []string
	// journalBytes bounds how far the data directory may grow in a pass.
	journalBytes() int64
	// warm creates the session(s), uploads and sends the first cold
	// request per log.
	warm(ctx context.Context, p *pass) error
	// references computes the in-process outputs responses are checked
	// against (untimed).
	references(ctx context.Context) error
	// run executes the timed schedule through p.rec.
	run(ctx context.Context, p *pass) error
	// keyOp is the operation type whose latency the end-to-end p50 and
	// tail report.
	keyOp() string
	// stages are the dpe_stage_duration_seconds stages that do not nest
	// inside another stage on this workload's routes; their sum is the
	// route time attributed to the provider.
	stages() []string
}

// durable is implemented by workloads that check crash recovery. The
// check runs on a pass of its own after the timed one (see
// durabilityPass).
type durable interface {
	checkDurability(ctx context.Context, p *pass) error
}

func newWorkload(name string, seed int64, sz sizes, seconds int) (benchWorkload, error) {
	switch name {
	case "matrix-bulk":
		return newMatrixBulk(seed, sz, seconds)
	case "append-mine":
		return newAppendMine(seed, sz, seconds)
	case "neighbors-churn":
		return newNeighborsChurn(seed, sz, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// generate makes one plaintext query log of n queries from the seed.
func generate(name string, seed int64, i, n int) (*workload.Workload, error) {
	return workload.Generate(workload.Config{
		Seed:              fmt.Sprintf("loadbench/%s/%d/%d", name, seed, i),
		Queries:           n,
		IncludeAggregates: true,
		IncludeJoins:      true,
	})
}

// newOwner derives the data owner's keys from the seed (512-bit
// Paillier, as the repository's examples use). Key derivation is not
// part of set-up: a deployment does it once, not per run.
func newOwner(seed int64, w *workload.Workload, queries [][]string) (*dpe.Owner, error) {
	owner, err := dpe.NewOwner([]byte(fmt.Sprintf("loadbench-owner-%d", seed)), w.Schema, dpe.Config{PaillierBits: 512})
	if err != nil {
		return nil, err
	}
	for _, q := range queries {
		if err := owner.DeclareJoins(q); err != nil {
			return nil, err
		}
	}
	return owner, nil
}

func budget(perSec float64, seconds, floor int) int {
	return max(floor, int(math.Round(perSec*float64(seconds))))
}

// segmentEnd closes a peak-RSS segment after operation i of n when i
// ends one of rssSegments equal parts, except the last, which measure
// closes.
func segmentEnd(p *pass, i, n int) error {
	segs := min(rssSegments, n)
	if i == n-1 || (i+1)*segs/n == i*segs/n {
		return nil
	}
	return p.markPeak(true)
}

// sameMatrix reports whether two matrices are bit-identical.
func sameMatrix(a, b dpe.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func queryBytes(qs []string) float64 {
	n := 0
	for _, q := range qs {
		n += len(q)
	}
	return float64(n)
}

// ---------------------------------------------------------------------
// matrix-bulk

// matrixBulk: one tenant, one access-area log prepared at set-up, then
// the full DistanceMatrix over and over. The JSON matrix wire and the
// slowest kernel dominate; cache, prepare, approx, mining and journal
// are bypassed in steady state.
type matrixBulk struct {
	sz    sizes
	ops   int
	w     *workload.Workload
	owner *dpe.Owner

	encLog   []string
	encOpts  []dpe.ProviderOption
	sessOpts []service.SessionOption
	sess     *service.Session
	cold     dpe.Matrix
	ref      dpe.Matrix
}

func newMatrixBulk(seed int64, sz sizes, seconds int) (*matrixBulk, error) {
	w, err := generate("matrix-bulk", seed, 0, sz.matrixN)
	if err != nil {
		return nil, err
	}
	owner, err := newOwner(seed, w, [][]string{w.Queries})
	if err != nil {
		return nil, err
	}
	return &matrixBulk{sz: sz, ops: budget(sz.matrixPerSec, seconds, 3), w: w, owner: owner}, nil
}

func (b *matrixBulk) encrypt() error {
	encOpts, sessOpts, err := service.EncryptedArtifactOptions(b.owner, b.w, dpe.MeasureAccessArea)
	if err != nil {
		return err
	}
	encLog, err := b.owner.EncryptLog(b.w.Queries, dpe.MeasureAccessArea)
	if err != nil {
		return err
	}
	b.encOpts, b.sessOpts, b.encLog = encOpts, sessOpts, encLog
	return nil
}

func (b *matrixBulk) serverFlags() []string { return nil }

func (b *matrixBulk) journalBytes() int64 { return 64 << 20 }

func (b *matrixBulk) warm(ctx context.Context, p *pass) error {
	sess, err := p.client.NewSession(ctx, dpe.MeasureAccessArea, b.sessOpts...)
	if err != nil {
		return err
	}
	b.sess = sess
	b.cold, err = sess.DistanceMatrix(ctx, b.encLog)
	return err
}

func (b *matrixBulk) references(ctx context.Context) error {
	prov, err := dpe.NewProvider(dpe.MeasureAccessArea, b.encOpts...)
	if err != nil {
		return err
	}
	b.ref, err = prov.DistanceMatrix(ctx, b.encLog)
	return err
}

func (b *matrixBulk) run(ctx context.Context, p *pass) error {
	rec := p.rec
	if !sameMatrix(b.cold, b.ref) {
		rec.mismatch("matrix-bulk: cold matrix differs from the in-process matrix")
	}
	n := float64(len(b.encLog))
	for i := 0; i < b.ops; i++ {
		var m dpe.Matrix
		err := rec.do("matrix", func() (err error) {
			m, err = b.sess.DistanceMatrix(ctx, b.encLog)
			return err
		})
		if err != nil {
			return err
		}
		if !sameMatrix(m, b.ref) {
			rec.mismatch("matrix-bulk: call %d: matrix differs from the in-process matrix", i)
		}
		rec.counts["entries"] += n * n
		rec.counts["pairs"] += n * (n - 1) / 2
		if err := segmentEnd(p, i, b.ops); err != nil {
			return err
		}
	}
	return nil
}

func (b *matrixBulk) keyOp() string { return "matrix" }

func (b *matrixBulk) stages() []string { return []string{"prepare", "matrix"} }

// ---------------------------------------------------------------------
// append-mine

// appendMine: tenants one after another, each growing a structure log
// by AppendMine with reads in between, then deleting its session. The
// only workload where prepare-extend, the append kernel, incremental
// DBSCAN, approx-index extension and the journal run on every write.
type appendMine struct {
	sz      sizes
	seed    int64
	tenants int
	owner   *dpe.Owner
	plain   [][]string
	enc     [][]string
	prov    *dpe.Provider

	cur *tenant
}

type tenant struct {
	idx    int
	sess   *service.Session
	log    []string
	m      dpe.Matrix
	labels []int
	reads  []readCheck
	rows   []rowCheck
}

// readCheck is one neighbor a Neighbors call returned, checked at the
// end of the tenant against its verified matrix (a grown log's matrix
// has every earlier log's matrix as its top-left block).
type readCheck struct {
	q, idx int
	d      float64
}

// rowCheck is one Distances row, kept as its length and hash and
// checked like a readCheck.
type rowCheck struct {
	q, n int
	hash uint64
}

func rowHash(row []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range row {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(d))
		h.Write(b[:])
	}
	return h.Sum64()
}

func newAppendMine(seed int64, sz sizes, seconds int) (*appendMine, error) {
	tenants := max(2, int(math.Round(float64(seconds)/sz.tenantSec)))
	// Each tenant's log: base, the appended rounds, and one more batch
	// for the post-restart append of the durability check.
	n := sz.baseN + (sz.rounds+1)*sz.appendK
	a := &appendMine{sz: sz, seed: seed, tenants: tenants}
	var first *workload.Workload
	for t := 0; t < tenants; t++ {
		w, err := generate("append-mine", seed, t, n)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = w
		}
		a.plain = append(a.plain, w.Queries)
	}
	owner, err := newOwner(seed, first, a.plain)
	if err != nil {
		return nil, err
	}
	a.owner = owner
	prov, err := dpe.NewProvider(dpe.MeasureStructure)
	if err != nil {
		return nil, err
	}
	a.prov = prov
	return a, nil
}

func (a *appendMine) encrypt() error {
	a.enc = a.enc[:0]
	for _, qs := range a.plain {
		e, err := a.owner.EncryptLog(qs, dpe.MeasureStructure)
		if err != nil {
			return err
		}
		a.enc = append(a.enc, e)
	}
	return nil
}

func (a *appendMine) serverFlags() []string { return nil }

// journalBytes: every append_mine journals the grown log, the prepared
// snapshot, the approx index and the mining state, whose JSON matrix
// is about 20 bytes per entry. The bound allows 25 bytes per entry of
// each tenant's bootstrap and appended states, plus 1 MB per state.
func (a *appendMine) journalBytes() int64 {
	var perTenant int64
	for r := 0; r <= a.sz.rounds; r++ {
		n := int64(a.sz.baseN + r*a.sz.appendK)
		perTenant += 25*n*n + 1<<20
	}
	return int64(a.tenants) * perTenant
}

// step runs op as a timed operation when rec is set, and untimed
// during set-up.
func step(rec *recorder, kind string, op func() error) error {
	if rec == nil {
		return op()
	}
	return rec.do(kind, op)
}

// startTenant creates tenant t's session, fetches its base matrix and
// bootstraps the server's DBSCAN state.
func (a *appendMine) startTenant(ctx context.Context, p *pass, rec *recorder, t int) error {
	base := a.enc[t][:a.sz.baseN]
	cur := &tenant{idx: t, log: base}
	err := step(rec, "create_session", func() (err error) {
		cur.sess, err = p.client.NewSession(ctx, dpe.MeasureStructure)
		return err
	})
	if err != nil {
		return err
	}
	err = step(rec, "bootstrap_matrix", func() (err error) {
		cur.m, err = cur.sess.DistanceMatrix(ctx, base)
		return err
	})
	if err != nil {
		return err
	}
	err = step(rec, "bootstrap_mine", func() error {
		m, res, err := cur.sess.AppendMine(ctx, cur.m, base, nil, dbscanSpec)
		if err != nil {
			return err
		}
		cur.m, cur.labels = m, res.Labels
		return nil
	})
	if err != nil {
		return err
	}
	if rec != nil {
		n := float64(a.sz.baseN)
		rec.counts["query_bytes"] += queryBytes(base)
		rec.counts["entries"] += n * n
		rec.counts["pairs"] += n * (n - 1) // matrix call plus the cold mine
	}
	a.cur = cur
	return nil
}

func (a *appendMine) warm(ctx context.Context, p *pass) error {
	return a.startTenant(ctx, p, nil, 0)
}

func (a *appendMine) references(context.Context) error { return nil }

func (a *appendMine) run(ctx context.Context, p *pass) error {
	return a.runTenants(ctx, p, a.tenants, false)
}

// runTenants runs the cycles of the first n tenants; keepLast leaves
// the last tenant's session live.
func (a *appendMine) runTenants(ctx context.Context, p *pass, n int, keepLast bool) error {
	rec := p.rec
	rng := rand.New(rand.NewSource(a.seed))
	k := a.sz.appendK
	for t := 0; t < n; t++ {
		if t > 0 {
			if err := a.startTenant(ctx, p, rec, t); err != nil {
				return err
			}
		}
		cur := a.cur
		for r := 0; r < a.sz.rounds; r++ {
			off := a.sz.baseN + r*k
			newQ := a.enc[t][off : off+k]
			err := rec.do("append_mine", func() error {
				m, res, err := cur.sess.AppendMine(ctx, cur.m, cur.log, newQ, dbscanSpec)
				if err != nil {
					return err
				}
				cur.m, cur.labels = m, res.Labels
				if inc := res.Incremental; inc != nil {
					rec.counts["mine_pairs"] += float64(inc.PairsComputed)
					if inc.Warm {
						rec.counts["warm"]++
					}
					if inc.ColdFallback {
						rec.counts["cold_fallbacks"]++
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			cur.log = a.enc[t][:off+k]
			rec.counts["appends"]++
			rec.counts["query_bytes"] += queryBytes(newQ)
			rec.counts["entries"] += float64(k * len(cur.log))
			rec.counts["pairs"] += float64(off*k + k*(k-1)/2)
			for j := 0; j < a.sz.readsPerRound; j++ {
				q := rng.Intn(len(cur.log))
				var res *dpe.NeighborsResult
				err := rec.do("neighbors", func() (err error) {
					res, err = cur.sess.Neighbors(ctx, cur.log, q, a.sz.neighborsK)
					return err
				})
				if err != nil {
					return err
				}
				for _, nb := range res.Neighbors {
					cur.reads = append(cur.reads, readCheck{q: q, idx: nb.Index, d: nb.Distance})
				}
				rec.counts["neighbors"]++
				rec.counts["candidates"] += float64(res.Candidates)
				rec.counts["entries"] += float64(len(res.Neighbors))
			}
			for j := 0; j < a.sz.rowsPerRound; j++ {
				q := rng.Intn(len(cur.log))
				var row []float64
				err := rec.do("distances", func() (err error) {
					row, err = cur.sess.Distances(ctx, cur.log, q)
					return err
				})
				if err != nil {
					return err
				}
				cur.rows = append(cur.rows, rowCheck{q: q, n: len(row), hash: rowHash(row)})
				rec.counts["entries"] += float64(len(row))
				rec.counts["pairs"] += float64(len(row))
			}
		}
		if err := segmentEnd(p, t, n); err != nil {
			return err
		}
		if err := a.verifyTenant(ctx, rec, cur); err != nil {
			return err
		}
		if keepLast && t == n-1 {
			break
		}
		if err := rec.do("delete_session", func() error { return cur.sess.Close(ctx) }); err != nil {
			return err
		}
	}
	return nil
}

// verifyTenant checks, outside the timed operations, the client's
// spliced matrix and last DBSCAN labels against a cold in-process Mine
// of the grown log, and every neighbor distance read on the way.
func (a *appendMine) verifyTenant(ctx context.Context, rec *recorder, cur *tenant) error {
	ref, err := a.prov.Mine(ctx, cur.log, dbscanSpec)
	if err != nil {
		return fmt.Errorf("in-process reference mine: %w", err)
	}
	if !sameMatrix(cur.m, ref.Matrix) {
		rec.mismatch("append-mine: tenant %d: spliced matrix differs from the in-process matrix", cur.idx)
		return nil
	}
	if !slices.Equal(mining.CanonicalLabels(cur.labels), mining.CanonicalLabels(ref.Labels)) {
		rec.mismatch("append-mine: tenant %d: DBSCAN labels differ from a cold Mine", cur.idx)
	}
	for _, c := range cur.reads {
		if math.Float64bits(ref.Matrix[c.q][c.idx]) != math.Float64bits(c.d) {
			rec.mismatch("append-mine: tenant %d: neighbor distance d(%d,%d) = %v, want %v", cur.idx, c.q, c.idx, c.d, ref.Matrix[c.q][c.idx])
		}
	}
	for _, c := range cur.rows {
		if c.n > len(ref.Matrix) || rowHash(ref.Matrix[c.q][:c.n]) != c.hash {
			rec.mismatch("append-mine: tenant %d: distances row %d of %d differs from the in-process matrix", cur.idx, c.q, c.n)
		}
	}
	cur.reads, cur.rows = nil, nil
	return nil
}

// checkDurability runs the first tenant's cycle on a freshly set-up
// pass, SIGKILLs the server, restarts it on the same data directory and
// checks that the last acknowledged grown log serves the client's
// spliced matrix and that the next append_mine is warm.
func (a *appendMine) checkDurability(ctx context.Context, p *pass) error {
	if err := a.runTenants(ctx, p, 1, true); err != nil {
		return err
	}
	cur := a.cur
	p.srv.kill()
	start := time.Now()
	if err := p.srv.launch(ctx, p.opts.serverBin); err != nil {
		return fmt.Errorf("restarting dpeserver on its data directory: %w", err)
	}
	p.replay = time.Since(start)
	sess, err := p.client.AttachSession(ctx, cur.sess.ID())
	if err != nil {
		p.rec.mismatch("append-mine: session %s lost across restart: %v", cur.sess.ID(), err)
		return nil
	}
	m, err := sess.DistanceMatrix(ctx, cur.log)
	if err != nil {
		p.rec.mismatch("append-mine: matrix after restart: %v", err)
		return nil
	}
	if !sameMatrix(m, cur.m) {
		p.rec.mismatch("append-mine: matrix after restart differs from the client's spliced copy")
	}
	off := len(cur.log)
	newQ := a.enc[cur.idx][off : off+a.sz.appendK]
	m, res, err := sess.AppendMine(ctx, cur.m, cur.log, newQ, dbscanSpec)
	if err != nil {
		p.rec.mismatch("append-mine: append_mine after restart: %v", err)
		return nil
	}
	if res.Incremental == nil || !res.Incremental.Warm {
		p.rec.mismatch("append-mine: append_mine after restart was cold")
	}
	ref, err := a.prov.Mine(ctx, a.enc[cur.idx][:off+a.sz.appendK], dbscanSpec)
	if err != nil {
		return fmt.Errorf("in-process reference mine: %w", err)
	}
	if !sameMatrix(m, ref.Matrix) || !slices.Equal(mining.CanonicalLabels(res.Labels), mining.CanonicalLabels(ref.Labels)) {
		p.rec.mismatch("append-mine: append_mine after restart differs from a cold in-process Mine")
	}
	return nil
}

func (a *appendMine) keyOp() string { return "append_mine" }

// stages: the matrix stage nests in the cold mine stage and append_rows
// in mine_delta on the append_mine route.
func (a *appendMine) stages() []string {
	return []string{"prepare", "append_extend", "approx_index", "rerank", "mine", "mine_delta"}
}

// ---------------------------------------------------------------------
// neighbors-churn

// neighborsChurn: one tenant with many token logs whose prepared state
// and LSH indexes are twice its shard's cache budget; Zipf-skewed
// Neighbors reads keep the LRU evicting and rebuilding. Responses are
// tiny, so HTTP, registry, cache and the prepare-on-miss dominate.
type neighborsChurn struct {
	sz    sizes
	seed  int64
	ops   int
	owner *dpe.Owner
	plain [][]string
	enc   [][]string
	// cacheBytes is the server's -cache-bytes: the logs' whole working
	// set as the server accounts it, so that each of the two shards'
	// budgets is half of it whatever the seed's log sizes.
	cacheBytes int64

	sess *service.Session
	pls  []*dpe.PreparedLog
	prov *dpe.Provider
}

func newNeighborsChurn(seed int64, sz sizes, seconds int) (*neighborsChurn, error) {
	c := &neighborsChurn{sz: sz, seed: seed, ops: budget(sz.churnPerSec, seconds, 20)}
	var first *workload.Workload
	for i := 0; i < sz.logs; i++ {
		w, err := generate("neighbors-churn", seed, i, sz.logN)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = w
		}
		c.plain = append(c.plain, w.Queries)
	}
	owner, err := newOwner(seed, first, c.plain)
	if err != nil {
		return nil, err
	}
	c.owner = owner
	prov, err := dpe.NewProvider(dpe.MeasureToken)
	if err != nil {
		return nil, err
	}
	c.prov = prov
	if err := c.encrypt(); err != nil {
		return nil, err
	}
	for _, log := range c.enc {
		pl, err := prov.Prepare(context.Background(), log)
		if err != nil {
			return nil, err
		}
		idx, err := prov.BuildApproxIndex(pl)
		if err != nil {
			return nil, err
		}
		c.cacheBytes += pl.SizeBytes() + idx.SizeBytes()
	}
	return c, nil
}

func (c *neighborsChurn) encrypt() error {
	c.enc = c.enc[:0]
	for _, qs := range c.plain {
		e, err := c.owner.EncryptLog(qs, dpe.MeasureToken)
		if err != nil {
			return err
		}
		c.enc = append(c.enc, e)
	}
	return nil
}

func (c *neighborsChurn) serverFlags() []string {
	return []string{"-shards", "2", "-cache-bytes", fmt.Sprint(c.cacheBytes)}
}

// journalBytes: every cache miss journals the log's prepared snapshot
// and LSH index again, a few hundred bytes per query.
func (c *neighborsChurn) journalBytes() int64 {
	return int64(c.ops+c.sz.logs) * int64(c.sz.logN) * 400
}

func (c *neighborsChurn) warm(ctx context.Context, p *pass) error {
	sess, err := p.client.NewSession(ctx, dpe.MeasureToken)
	if err != nil {
		return err
	}
	c.sess = sess
	for _, log := range c.enc {
		if _, err := sess.UploadLog(ctx, log); err != nil {
			return err
		}
		if _, err := sess.Neighbors(ctx, log, 0, c.sz.neighborsK); err != nil {
			return err
		}
	}
	return nil
}

func (c *neighborsChurn) references(ctx context.Context) error {
	c.pls = c.pls[:0]
	for _, log := range c.enc {
		pl, err := c.prov.Prepare(ctx, log)
		if err != nil {
			return err
		}
		c.pls = append(c.pls, pl)
	}
	return nil
}

func (c *neighborsChurn) run(ctx context.Context, p *pass) error {
	rec := p.rec
	rng := rand.New(rand.NewSource(c.seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(c.sz.logs-1))
	for i := 0; i < c.ops; i++ {
		li := int(zipf.Uint64())
		q := rng.Intn(c.sz.logN)
		var res *dpe.NeighborsResult
		err := rec.do("neighbors", func() (err error) {
			res, err = c.sess.Neighbors(ctx, c.enc[li], q, c.sz.neighborsK)
			return err
		})
		if err != nil {
			return err
		}
		row, err := c.prov.DistancesPrepared(ctx, c.pls[li], q)
		if err != nil {
			return fmt.Errorf("in-process reference row: %w", err)
		}
		for _, nb := range res.Neighbors {
			if nb.Index < 0 || nb.Index >= len(row) || math.Float64bits(row[nb.Index]) != math.Float64bits(nb.Distance) {
				rec.mismatch("neighbors-churn: log %d query %d: neighbor %d distance %v differs from the in-process row", li, q, nb.Index, nb.Distance)
				break
			}
		}
		rec.counts["neighbors"]++
		rec.counts["candidates"] += float64(res.Candidates)
		rec.counts["entries"] += float64(len(res.Neighbors))
		if err := segmentEnd(p, i, c.ops); err != nil {
			return err
		}
	}
	return nil
}

func (c *neighborsChurn) keyOp() string { return "neighbors" }

func (c *neighborsChurn) stages() []string { return []string{"prepare", "approx_index", "rerank"} }
