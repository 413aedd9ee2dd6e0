package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	dpe "repro"
	"repro/internal/store/journal"
)

// session is one tenant's provider state on the server: the immutable
// provider built from the uploaded artifacts, plus the logs uploaded so
// far. Logs are content-addressed, so re-uploading an identical log is
// idempotent and lands on the same cached prepared state. A session is
// pinned to one registry shard for its whole life — its cache entries,
// in-flight preparations, journal records, and map entry all live
// there.
type session struct {
	id       string
	measure  dpe.Measure
	provider *dpe.Provider
	reg      *Registry
	sh       *shard
	created  time.Time

	// persistReq is the encoded CreateSessionRequest, kept so journal
	// compaction and tenant export can rewrite the create record without
	// re-encoding artifacts. Deliberate trade-off: the encoded request
	// stays resident alongside the decoded provider for the session's
	// lifetime — roughly doubling artifact memory for catalog-heavy
	// tenants — until compaction learns to source create records from
	// the journal itself.
	persistReq json.RawMessage

	mu       sync.Mutex
	logs     map[string][]string
	logBytes int64
	lastUsed time.Time
	// inflight counts leader Prepare builds currently running for this
	// session. The janitor never reaps a session with inflight > 0: a
	// reap mid-build would discard the most expensive work the service
	// does and churn the cache byte budget.
	inflight int
	hits     int64
	misses   int64
	// approxHits/approxMisses count approx-index cache outcomes the way
	// hits/misses count prepared-state ones — the observable signal that
	// a restart recovered the index from the journal (first neighbors
	// call after replay is a hit, not a miss).
	approxHits   int64
	approxMisses int64
	// mineHits/mineMisses count mining-state cache outcomes on the
	// append_mine path: a hit means the combined log's state was already
	// cached (or another caller's in-flight mine was joined), a miss
	// means this call ran the incremental (or bootstrap) mine. A restart
	// that recovered the state from the journal warm-starts without a
	// cold bootstrap, which shows up as a miss whose IncrementalStats
	// report Warm.
	mineHits   int64
	mineMisses int64
}

// ID returns the session id.
func (s *session) ID() string { return s.id }

// touchLocked marks the session used; callers hold s.mu.
func (s *session) touchLocked() { s.lastUsed = time.Now() }

// LogID content-addresses a query log: equal logs get equal ids. The
// id carries the full SHA-256 digest — a truncated content address
// would let two different logs inside one session silently share
// prepared state and matrices on a 64-bit collision; at 256 bits a
// collision is cryptographically out of reach.
func LogID(queries []string) string {
	h := sha256.New()
	for _, q := range queries {
		fmt.Fprintf(h, "%d\n", len(q))
		h.Write([]byte(q))
	}
	return "l-" + hex.EncodeToString(h.Sum(nil))
}

// AddLog registers an uploaded log and returns its content-derived id.
// The session's raw-log store is budgeted (entries and bytes) so one
// tenant cannot grow server memory without bound.
func (s *session) AddLog(queries []string) (string, error) {
	size := int64(0)
	for _, q := range queries {
		size += int64(len(q))
	}
	return s.addLogSized(queries, size)
}

// addLogSized is AddLog with the byte-budget charge made explicit: a
// log derived from an already-stored base (the append path) shares the
// base's string data — Go strings are immutable, so the combined slice
// duplicates only headers — and is charged only for its new tail.
func (s *session) addLogSized(queries []string, size int64) (string, error) {
	if len(queries) == 0 {
		return "", fmt.Errorf("service: empty query log")
	}
	id := LogID(queries)
	cfg := s.reg.cfg
	s.mu.Lock()
	s.touchLocked()
	if _, ok := s.logs[id]; ok {
		s.mu.Unlock()
		return id, nil
	}
	if len(s.logs) >= cfg.MaxLogsPerSession {
		n := len(s.logs)
		s.mu.Unlock()
		return "", fmt.Errorf("service: session log limit reached (%d logs); delete the session or reuse uploaded logs", n)
	}
	if s.logBytes+size > cfg.MaxLogBytesPerSession {
		have := s.logBytes
		s.mu.Unlock()
		return "", fmt.Errorf("service: session log byte budget exceeded (%d + %d > %d bytes)", have, size, cfg.MaxLogBytesPerSession)
	}
	stored := append([]string(nil), queries...)
	s.logs[id] = stored
	s.logBytes += size
	s.mu.Unlock()

	// Journal outside s.mu (the journal's lock is never taken while
	// holding session or shard locks — see shard.journal's rule). A
	// concurrent compaction between the map update and this append
	// either already snapshotted the new log (fine: the append is a
	// harmless duplicate for replay) or will be followed by it.
	if err := s.journalLog(id, stored); err != nil {
		s.mu.Lock()
		delete(s.logs, id)
		s.logBytes -= size
		s.mu.Unlock()
		return "", err
	}
	return id, nil
}

// journalLog writes a log-upload record for a persistent registry.
func (s *session) journalLog(id string, queries []string) error {
	if !s.reg.persistent {
		return nil
	}
	if err := s.sh.journal.Append(journal.Log{SessionID: s.id, LogID: id, Queries: queries}); err != nil {
		return fmt.Errorf("service: journaling log upload: %w", err)
	}
	return nil
}

// restoreLog is the replay-side inverse of journalLog: it trusts the
// recorded id (pre-restart references must stay valid even across LogID
// algorithm changes) and is idempotent.
func (s *session) restoreLog(id string, queries []string) bool {
	size := int64(0)
	for _, q := range queries {
		size += int64(len(q))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.logs[id]; ok {
		return false
	}
	s.logs[id] = queries
	s.logBytes += size
	return true
}

// log returns an uploaded log by id.
func (s *session) log(id string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked()
	queries, ok := s.logs[id]
	if !ok {
		return nil, notFoundError{fmt.Errorf("service: unknown log %q (upload it first)", id)}
	}
	return queries, nil
}

// preparedCost is the cache's byte accounting for one prepared log: the
// metric's own footprint estimate when it has one (the result measure's
// tuple sets scale with catalog rows, not with log text), the log size
// plus a per-query overhead otherwise.
func preparedCost(pl *dpe.PreparedLog, queries []string) int64 {
	if size := pl.SizeBytes(); size > 0 {
		return size
	}
	cost := int64(0)
	for _, q := range queries {
		cost += int64(2*len(q)) + 256
	}
	return cost
}

// prepared returns the log's prepared state, serving repeat calls from
// the session's shard-local LRU cache (the expensive half of every
// distance computation — tokenizing, parsing, executing — runs at most
// once per uploaded log while the entry stays cached). Concurrent cold
// calls for the same log collapse into a single preparation.
func (s *session) prepared(ctx context.Context, logID string) (*dpe.PreparedLog, error) {
	queries, err := s.log(logID)
	if err != nil {
		return nil, err
	}
	return s.preparedKeyed(ctx, logID, queries, func(ctx context.Context) (*dpe.PreparedLog, error) {
		return s.provider.Prepare(ctx, queries)
	})
}

// preparedKeyed serves the prepared state for one cached log id,
// running build at most once per cold key however many callers race
// (singleflight). Both the full-prepare path (prepared) and the
// incremental extension path (Append) go through here, so they share
// the shard's cache, its coalescing, and the deleted-session rule.
func (s *session) preparedKeyed(ctx context.Context, logID string, queries []string, build func(context.Context) (*dpe.PreparedLog, error)) (*dpe.PreparedLog, error) {
	key := s.id + "\x00" + logID
	for {
		if v, ok := s.sh.cache.get(key); ok {
			s.mu.Lock()
			s.hits++
			s.mu.Unlock()
			return v.(*dpe.PreparedLog), nil
		}
		c, leader := s.sh.flight.begin(key)
		if leader {
			// Re-check under leadership: a previous leader may have added
			// the entry between our cache miss and our begin (its add runs
			// before its finish, so the entry is visible by now).
			if v, ok := s.sh.cache.get(key); ok {
				pl := v.(*dpe.PreparedLog)
				s.sh.flight.finish(key, c, pl, nil)
				s.mu.Lock()
				s.hits++
				s.mu.Unlock()
				return pl, nil
			}
			// Pin the session for the build's duration: a cold Prepare can
			// outlast the idle TTL, and reaping mid-build would discard the
			// result (see shard.reapIdle).
			s.mu.Lock()
			s.inflight++
			s.mu.Unlock()
			s.reg.metrics.inflightBuilds.Add(1)
			pl, err := build(ctx)
			s.reg.metrics.inflightBuilds.Add(-1)
			cached := false
			if err == nil {
				// Only cache for a still-live session: if the session was
				// deleted mid-prepare, its removePrefix already ran and an
				// add now would strand an unreachable entry on the shard's
				// byte budget. The session is pinned to s.sh, so its own
				// shard map is the liveness authority — no need to re-route
				// the id through the ring.
				if s.sh.session(s.id) != nil {
					s.sh.cache.add(key, pl, preparedCost(pl, queries))
					cached = true
				}
			}
			// Completing the build is a use: the idle clock restarts now,
			// so a tenant whose cold Prepare took most of a TTL is not
			// reaped out from under its follow-up requests.
			s.mu.Lock()
			s.inflight--
			s.touchLocked()
			if err == nil {
				s.misses++
			}
			s.mu.Unlock()
			if cached {
				s.persistSnapshot(logID, pl)
			}
			s.sh.flight.finish(key, c, pl, err)
			return pl, err
		}
		// Not the leader: this call coalesced onto an in-flight build.
		s.reg.metrics.flightDedups.Inc()
		select {
		case <-c.done:
			if c.err == nil {
				s.mu.Lock()
				s.hits++
				s.mu.Unlock()
				return c.val.(*dpe.PreparedLog), nil
			}
			// The leader failed — possibly only because *its* context was
			// cancelled. If ours is still live, retry (and likely become
			// the new leader) rather than inherit a stranger's error.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// approxKey namespaces a session's cached approx index for one log.
// The key keeps the s.id + "\x00" prefix every session-owned cache
// entry carries, so the one removePrefix sweep on delete and TTL reap
// evicts prepared state and approx indexes together — the split-budget
// byte accounting stays truthful with no second bookkeeping path. The
// "approx:" namespace cannot collide with prepared keys: log ids
// always start with "l-".
func (s *session) approxKey(logID string) string {
	return s.id + "\x00approx:" + logID
}

// approxIndex returns the log's MinHash/LSH index, serving repeat
// calls from the shard LRU (size-accounted via the index's own
// estimate, alongside prepared state) and coalescing concurrent cold
// builds through the same singleflight group prepares use. A freshly
// built index is journaled so a restarted server recovers it instead
// of re-signing the log.
func (s *session) approxIndex(ctx context.Context, logID string, pl *dpe.PreparedLog) (*dpe.ApproxIndex, error) {
	key := s.approxKey(logID)
	for {
		if v, ok := s.sh.cache.get(key); ok {
			s.mu.Lock()
			s.approxHits++
			s.mu.Unlock()
			return v.(*dpe.ApproxIndex), nil
		}
		c, leader := s.sh.flight.begin(key)
		if leader {
			if v, ok := s.sh.cache.get(key); ok {
				idx := v.(*dpe.ApproxIndex)
				s.sh.flight.finish(key, c, idx, nil)
				s.mu.Lock()
				s.approxHits++
				s.mu.Unlock()
				return idx, nil
			}
			// BuildApproxIndex takes no context, so its stage is timed
			// here rather than inside the provider like the other stages.
			s.reg.metrics.inflightBuilds.Add(1)
			buildStart := time.Now()
			idx, err := s.provider.BuildApproxIndex(pl)
			s.reg.observeStage(ctx, "approx_index", time.Since(buildStart))
			s.reg.metrics.inflightBuilds.Add(-1)
			cached := false
			if err == nil {
				// Same deleted-session rule as preparedKeyed: never add
				// for a session whose removePrefix already ran.
				if s.sh.session(s.id) != nil {
					s.sh.cache.add(key, idx, idx.SizeBytes())
					cached = true
				}
			}
			s.mu.Lock()
			s.touchLocked()
			if err == nil {
				s.approxMisses++
			}
			s.mu.Unlock()
			if cached {
				s.persistApprox(logID, idx)
			}
			s.sh.flight.finish(key, c, idx, err)
			return idx, err
		}
		// Not the leader: this call coalesced onto an in-flight build.
		s.reg.metrics.flightDedups.Inc()
		select {
		case <-c.done:
			if c.err == nil {
				s.mu.Lock()
				s.approxHits++
				s.mu.Unlock()
				return c.val.(*dpe.ApproxIndex), nil
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// persistApprox journals the serialized index, best-effort like
// persistSnapshot: the index is a cache (the server can always rebuild
// it from the prepared state), so a failure must not fail the request.
func (s *session) persistApprox(logID string, idx *dpe.ApproxIndex) {
	if !s.reg.persistent {
		return
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		return
	}
	s.sh.journal.Append(journal.Approx{SessionID: s.id, LogID: logID, Blob: blob})
}

// persistSnapshot journals the serialized prepared state under the
// content-addressed log id, best-effort: the snapshot is a cache (the
// registry can always re-prepare from the journaled log), so a codec or
// IO failure here must not fail the tenant's request.
func (s *session) persistSnapshot(logID string, pl *dpe.PreparedLog) {
	if !s.reg.persistent {
		return
	}
	blob, err := s.provider.MarshalPreparedLog(pl)
	if err != nil {
		return
	}
	s.sh.journal.Append(journal.Snapshot{SessionID: s.id, LogID: logID, Blob: blob})
}

// Append is the incremental ingest path: it registers base ∘ newQueries
// as a new content-addressed log, extends the base log's cached prepared
// state with only the new queries, and computes only the new matrix rows
// (n·k + k·(k−1)/2 pair computations instead of a full rebuild). It
// returns the combined log's id, the offset n where the new rows start,
// and the k full-width rows — what a client splices onto its old matrix.
// The extended prepared state is cached under the combined log, so
// follow-up matrix/row/mine calls on it are warm; concurrent identical
// appends coalesce into one extension (the same singleflight as cold
// prepares).
//
// Each append registers one more log entry (charged only for the new
// tail's bytes — the base's string data is shared), so a long
// one-query-at-a-time append chain runs into MaxLogsPerSession; batch
// appends, or delete the session, when the budget error surfaces.
//
// An empty append is a no-op, not an error — the combined log *is* the
// base log (content addressing collapses them) and zero rows come back
// — matching dpe.Provider.Append, so dpe.ProviderAPI callers behave
// identically in-process and remote.
func (s *session) Append(ctx context.Context, baseLogID string, newQueries []string) (combinedID string, offset int, rows [][]float64, err error) {
	base, err := s.log(baseLogID)
	if err != nil {
		return "", 0, nil, err
	}
	combined := make([]string, 0, len(base)+len(newQueries))
	combined = append(combined, base...)
	combined = append(combined, newQueries...)
	tailSize := int64(0)
	for _, q := range newQueries {
		tailSize += int64(len(q))
	}
	combinedID, err = s.addLogSized(combined, tailSize)
	if err != nil {
		return "", 0, nil, err
	}
	pl, err := s.preparedKeyed(ctx, combinedID, combined, func(ctx context.Context) (*dpe.PreparedLog, error) {
		basePL, err := s.prepared(ctx, baseLogID)
		if err != nil {
			return nil, err
		}
		return s.provider.ExtendPrepared(ctx, basePL, newQueries)
	})
	if err != nil {
		return "", 0, nil, err
	}
	rows, err = s.provider.AppendRowsPrepared(ctx, len(base), pl)
	if err != nil {
		return "", 0, nil, err
	}
	// Ride the base log's approx index forward: if neighbors traffic
	// warmed it, sign only the new queries so the combined log starts
	// warm too. Best-effort — the index is a cache and rebuilds on
	// demand.
	s.extendApprox(baseLogID, combinedID, pl)
	return combinedID, len(base), rows, nil
}

// extendApprox extends a cached base-log approx index to the combined
// log after an append. peek (not get) keeps this opportunistic path
// out of the hit/miss counters and the recency order.
func (s *session) extendApprox(baseLogID, combinedID string, pl *dpe.PreparedLog) {
	if baseLogID == combinedID {
		return // empty append: the combined log is the base log
	}
	if _, ok := s.sh.cache.peek(s.approxKey(combinedID)); ok {
		return
	}
	v, ok := s.sh.cache.peek(s.approxKey(baseLogID))
	if !ok {
		return
	}
	idx, err := s.provider.ExtendApproxIndex(v.(*dpe.ApproxIndex), pl)
	if err != nil {
		return
	}
	if s.sh.session(s.id) == nil {
		return // deleted mid-append; see preparedKeyed's cache rule
	}
	s.sh.cache.add(s.approxKey(combinedID), idx, idx.SizeBytes())
	s.persistApprox(combinedID, idx)
}

// Neighbors is the sublinear top-K path: the log's LSH index yields
// candidates, the exact metric re-ranks them — no matrix row is ever
// materialized. The index is built (or recovered from the journal)
// once per log and cached alongside prepared state.
func (s *session) Neighbors(ctx context.Context, logID string, q, k int) (*dpe.NeighborsResult, error) {
	pl, err := s.prepared(ctx, logID)
	if err != nil {
		return nil, err
	}
	idx, err := s.approxIndex(ctx, logID, pl)
	if err != nil {
		return nil, err
	}
	return s.provider.NeighborsPrepared(ctx, pl, idx, q, k)
}

// Matrix computes the full pairwise distance matrix of an uploaded log.
func (s *session) Matrix(ctx context.Context, logID string) (dpe.Matrix, error) {
	pl, err := s.prepared(ctx, logID)
	if err != nil {
		return nil, err
	}
	return s.provider.DistanceMatrixPrepared(ctx, pl)
}

// Distances computes one matrix row of an uploaded log.
func (s *session) Distances(ctx context.Context, logID string, q int) ([]float64, error) {
	pl, err := s.prepared(ctx, logID)
	if err != nil {
		return nil, err
	}
	return s.provider.DistancesPrepared(ctx, pl, q)
}

// Mine builds the matrix of an uploaded log and runs one mining
// algorithm over it. The spec is validated before any expensive work.
func (s *session) Mine(ctx context.Context, logID string, spec dpe.MineSpec) (*dpe.MineResult, error) {
	queries, err := s.log(logID)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(len(queries)); err != nil {
		return nil, err
	}
	pl, err := s.prepared(ctx, logID)
	if err != nil {
		return nil, err
	}
	if spec.Approximate {
		idx, err := s.approxIndex(ctx, logID, pl)
		if err != nil {
			return nil, err
		}
		return s.provider.MinePreparedIndexed(ctx, pl, idx, spec)
	}
	return s.provider.MinePrepared(ctx, pl, spec)
}

// mineSpecFingerprint renders a spec as a canonical string for cache
// keys: equal specs — the warm-start eligibility test MineIncremental
// itself applies — get equal fingerprints. Approximate is omitted; the
// incremental path rejects approximate specs before any key is formed.
// The fingerprint never contains a NUL byte, so the log id after the
// key's final NUL separator parses back out unambiguously (compaction
// relies on that).
func mineSpecFingerprint(spec dpe.MineSpec) string {
	return fmt.Sprintf("%s,k=%d,eps=%g,minpts=%d,p=%g,d=%g,q=%d,ms=%d,ml=%d",
		spec.Algorithm, spec.K, spec.Eps, spec.MinPts, spec.P, spec.D,
		spec.Query, spec.MinSupport, spec.MaxLen)
}

// mineKey namespaces a session's cached mining state for one (spec,
// log) pair. Like approxKey it keeps the s.id + "\x00" prefix, so the
// one removePrefix sweep on delete and TTL reap releases mining-state
// bytes from the shard budget together with prepared state and approx
// indexes — no second eviction path to forget. "mine:" cannot collide
// with the other namespaces: log ids start with "l-" and the approx
// namespace spells differently.
func (s *session) mineKey(spec dpe.MineSpec, logID string) string {
	return s.id + "\x00mine:" + mineSpecFingerprint(spec) + "\x00" + logID
}

// mineFlightResult is what a mining singleflight leader publishes:
// followers of a coalesced call want the result, the cache wants the
// state.
type mineFlightResult struct {
	res   *dpe.MineResult
	state *dpe.MineState
}

// mineIncremental serves one (spec, combined log) mine, maintaining the
// session's cached MineState: a cached state for the combined log is
// replayed as a zero-delta warm run (no distance pairs), a cached state
// for the base log warm-starts the delta, and no state at all runs the
// cold bootstrap. Concurrent identical calls coalesce through the
// shard's singleflight group, and a freshly computed state is cached
// (byte-accounted) and journaled so a restarted server stays warm.
func (s *session) mineIncremental(ctx context.Context, baseLogID, combinedID string, pl *dpe.PreparedLog, spec dpe.MineSpec) (*dpe.MineResult, error) {
	key := s.mineKey(spec, combinedID)
	for {
		if v, ok := s.sh.cache.get(key); ok {
			prev := v.(*dpe.MineState)
			res, state, err := s.provider.MineIncremental(ctx, pl, prev, spec)
			if err == nil && prev.NeedsRebuild() && s.sh.session(s.id) != nil {
				// A replayed or imported state just had its matrix
				// rebuilt: keep the rebuilt state so only its first use
				// pays. Its content is unchanged, so nothing is journaled.
				s.sh.cache.add(key, state, state.SizeBytes())
			}
			if err == nil {
				s.mu.Lock()
				s.mineHits++
				s.touchLocked()
				s.mu.Unlock()
				s.reg.mineStateHits.Add(1)
			}
			return res, err
		}
		c, leader := s.sh.flight.begin(key)
		if leader {
			// Re-check under leadership, then fall back to the base log's
			// state (peek: opportunistic warm source, like extendApprox) —
			// hit when this exact mine was already paid for, warm delta
			// when only the base was.
			var prev *dpe.MineState
			selfWarm := false
			if v, ok := s.sh.cache.get(key); ok {
				prev, selfWarm = v.(*dpe.MineState), true
			} else if v, ok := s.sh.cache.peek(s.mineKey(spec, baseLogID)); ok {
				prev = v.(*dpe.MineState)
			}
			s.mu.Lock()
			s.inflight++
			s.mu.Unlock()
			s.reg.metrics.inflightBuilds.Add(1)
			res, state, err := s.provider.MineIncremental(ctx, pl, prev, spec)
			s.reg.metrics.inflightBuilds.Add(-1)
			cached := false
			if err == nil && !selfWarm {
				// Same deleted-session rule as preparedKeyed: never add for
				// a session whose removePrefix already ran.
				if s.sh.session(s.id) != nil {
					s.sh.cache.add(key, state, state.SizeBytes())
					cached = true
				}
			}
			s.mu.Lock()
			s.inflight--
			s.touchLocked()
			if err == nil {
				if selfWarm {
					s.mineHits++
				} else {
					s.mineMisses++
				}
			}
			s.mu.Unlock()
			if err == nil {
				if selfWarm {
					s.reg.mineStateHits.Add(1)
				} else {
					s.reg.mineStateMisses.Add(1)
				}
			}
			if cached {
				s.persistMineState(combinedID, state)
			}
			s.sh.flight.finish(key, c, mineFlightResult{res: res, state: state}, err)
			return res, err
		}
		// Not the leader: this call coalesced onto an in-flight mine.
		s.reg.metrics.flightDedups.Inc()
		select {
		case <-c.done:
			if c.err == nil {
				s.mu.Lock()
				s.mineHits++
				s.mu.Unlock()
				s.reg.mineStateHits.Add(1)
				return c.val.(mineFlightResult).res, nil
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// persistMineState journals the serialized mining state, best-effort
// like persistApprox: the state is a cache (the server can always
// re-mine cold), so a codec or IO failure must not fail the request.
func (s *session) persistMineState(logID string, state *dpe.MineState) {
	if !s.reg.persistent {
		return
	}
	blob, err := dpe.MarshalMineState(state)
	if err != nil {
		return
	}
	s.sh.journal.Append(journal.Mining{SessionID: s.id, LogID: logID, Blob: blob})
}

// AppendMine is the batched append-and-mine endpoint: one request
// appends newQueries to an uploaded base log, extends the prepared
// state (through the same singleflight key Append uses, so a racing
// logs:append and logs:append_mine coalesce into one extension instead
// of building twice), rides the approx index forward, and runs the
// mining spec incrementally from the base log's cached MineState. It
// returns the combined log id, the offset where the new rows start, the
// new full-width matrix rows (nil for apriori, which never builds a
// matrix), and the mining result with its IncrementalStats label delta.
//
// An empty append mines the base log itself — the content-addressed
// combined log *is* the base log — bootstrapping (and caching) its
// mining state.
func (s *session) AppendMine(ctx context.Context, baseLogID string, newQueries []string, spec dpe.MineSpec) (combinedID string, offset int, rows [][]float64, res *dpe.MineResult, err error) {
	base, err := s.log(baseLogID)
	if err != nil {
		return "", 0, nil, nil, err
	}
	if err := spec.Validate(len(base) + len(newQueries)); err != nil {
		return "", 0, nil, nil, err
	}
	combined := make([]string, 0, len(base)+len(newQueries))
	combined = append(combined, base...)
	combined = append(combined, newQueries...)
	tailSize := int64(0)
	for _, q := range newQueries {
		tailSize += int64(len(q))
	}
	combinedID, err = s.addLogSized(combined, tailSize)
	if err != nil {
		return "", 0, nil, nil, err
	}
	pl, err := s.preparedKeyed(ctx, combinedID, combined, func(ctx context.Context) (*dpe.PreparedLog, error) {
		basePL, err := s.prepared(ctx, baseLogID)
		if err != nil {
			return nil, err
		}
		return s.provider.ExtendPrepared(ctx, basePL, newQueries)
	})
	if err != nil {
		return "", 0, nil, nil, err
	}
	s.extendApprox(baseLogID, combinedID, pl)
	res, err = s.mineIncremental(ctx, baseLogID, combinedID, pl, spec)
	if err != nil {
		return "", 0, nil, nil, err
	}
	if res.Matrix != nil {
		rows = res.Matrix[len(base):]
	}
	return combinedID, len(base), rows, res, nil
}

// Verify runs the Definition 1 check with the session's tolerance.
func (s *session) Verify(plain, enc dpe.Matrix) (*dpe.PreservationReport, error) {
	s.mu.Lock()
	s.touchLocked()
	s.mu.Unlock()
	return s.provider.VerifyPreservation(plain, enc)
}

// Stats snapshots the session. Observing a session is deliberately not
// a use: a monitoring poller hitting GET /v1/sessions/{id} must not
// reset the idle clock, or the TTL janitor could never reap a session
// that is merely being watched.
func (s *session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{
		Session:         s.id,
		Measure:         s.measure,
		Logs:            len(s.logs),
		PreparedHits:    s.hits,
		PreparedMisses:  s.misses,
		ApproxHits:      s.approxHits,
		ApproxMisses:    s.approxMisses,
		MineStateHits:   s.mineHits,
		MineStateMisses: s.mineMisses,
		CreatedAt:       s.created,
	}
}
