package service

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/store/journal"
)

// Tenant export/import: one session's complete server-side state — the
// create request, its uploaded logs, and the cached prepared-state /
// approx-index / mining-state blobs — rendered as a portable,
// CRC-checked bundle file (see journal's bundle format). Export reuses
// collectSession, the same serializer journal compaction uses, so a
// bundle holds exactly what a compacted journal would; import replays
// it through the same typed codecs, so a restored session answers its
// first requests warm (cache hits, warm mining deltas) just like a
// restarted server.

// ImportResult reports what an import restored — the wire body of POST
// /v1/sessions:import.
type ImportResult struct {
	// Session is the restored session's id: bundles preserve ids, so
	// client-side references (and mining-state cache keys) stay valid.
	Session string `json:"session"`
	// Logs counts restored query logs; Snapshots, ApproxIndexes, and
	// MineStates count the cache entries restored warm.
	Logs          int `json:"logs"`
	Snapshots     int `json:"snapshots"`
	ApproxIndexes int `json:"approx_indexes"`
	MineStates    int `json:"mine_states"`
	// Skipped counts records that decoded but could not be applied —
	// e.g. a blob whose codec this binary no longer understands. The
	// session still imports; the skipped entries rebuild on demand.
	Skipped int `json:"skipped"`
}

// ExportSession streams one live session's state as a bundle to w. The
// snapshot is taken under the session's own locks (briefly), not the
// journal's — exporting never blocks other tenants' writes — and works
// on in-memory registries too: the bundle, not the journal, is the
// persistence being produced.
func (r *Registry) ExportSession(id string, w io.Writer) error {
	sh := r.shardFor(id)
	s := sh.session(id)
	if s == nil {
		return notFoundError{fmt.Errorf("service: unknown session %q", id)}
	}
	bw, err := journal.NewBundleWriter(w)
	if err != nil {
		return err
	}
	recs := collectSession(sh, s)
	if len(recs) == 0 {
		return fmt.Errorf("service: session %q has no exportable state", id)
	}
	for _, rec := range recs {
		if err := bw.Append(rec); err != nil {
			return err
		}
	}
	return bw.Close()
}

// bundleContents collects a bundle's typed records so ImportSession can
// validate the whole file before touching registry state. The journal
// dispatcher has already decoded (and version-checked) every record;
// the collector just sorts them by kind.
type bundleContents struct {
	sessions  []journal.Session
	logs      []journal.Log
	snapshots []journal.Snapshot
	approxes  []journal.Approx
	minings   []journal.Mining
	deletes   int
}

func (c *bundleContents) Session(s journal.Session) journal.Outcome {
	c.sessions = append(c.sessions, s)
	return journal.Applied
}

func (c *bundleContents) Delete(journal.Delete) journal.Outcome {
	c.deletes++
	return journal.Applied
}

func (c *bundleContents) Log(l journal.Log) journal.Outcome {
	c.logs = append(c.logs, l)
	return journal.Applied
}

func (c *bundleContents) Snapshot(s journal.Snapshot) journal.Outcome {
	c.snapshots = append(c.snapshots, s)
	return journal.Applied
}

func (c *bundleContents) Approx(a journal.Approx) journal.Outcome {
	c.approxes = append(c.approxes, a)
	return journal.Applied
}

func (c *bundleContents) Mining(m journal.Mining) journal.Outcome {
	c.minings = append(c.minings, m)
	return journal.Applied
}

// ImportSession restores one exported session from rd. The bundle must
// carry exactly one session, its id must not be live here, and the
// registry's capacity and per-session budgets apply as if the tenant
// had re-created and re-uploaded everything — violating any of them
// fails the import with no state change. Cached blobs restore
// best-effort (a stale codec skips the entry, never the import). On a
// persistent registry the restored state is journaled durably before
// ImportSession returns.
func (r *Registry) ImportSession(rd io.Reader) (*ImportResult, error) {
	var c bundleContents
	st, err := journal.ReadBundle(rd, &c)
	if err != nil {
		return nil, err
	}
	if len(c.sessions) == 0 {
		return nil, fmt.Errorf("service: bundle has no session record")
	}
	if len(c.sessions) > 1 {
		return nil, fmt.Errorf("service: bundle has %d session records, want exactly 1", len(c.sessions))
	}
	if c.deletes > 0 {
		return nil, fmt.Errorf("service: bundle contains tombstones (not a tenant export)")
	}
	js := c.sessions[0]
	var req CreateSessionRequest
	if err := json.Unmarshal(js.Request, &req); err != nil || req.Measure == nil {
		return nil, fmt.Errorf("service: bundle session record has an invalid create request")
	}
	for _, l := range c.logs {
		if l.SessionID != js.ID {
			return nil, fmt.Errorf("service: bundle log %q belongs to session %q, not %q", l.LogID, l.SessionID, js.ID)
		}
	}
	cfg := r.cfg
	if len(c.logs) > cfg.MaxLogsPerSession {
		return nil, fmt.Errorf("service: bundle has %d logs, over the per-session limit of %d", len(c.logs), cfg.MaxLogsPerSession)
	}
	var logBytes int64
	seen := make(map[string]bool, len(c.logs))
	for _, l := range c.logs {
		if seen[l.LogID] {
			return nil, fmt.Errorf("service: bundle repeats log %q", l.LogID)
		}
		seen[l.LogID] = true
		for _, q := range l.Queries {
			logBytes += int64(len(q))
		}
	}
	if logBytes > cfg.MaxLogBytesPerSession {
		return nil, fmt.Errorf("service: bundle logs total %d bytes, over the per-session budget of %d", logBytes, cfg.MaxLogBytesPerSession)
	}

	sh := r.shardFor(js.ID)
	if sh.session(js.ID) != nil {
		return nil, fmt.Errorf("service: session %q is already live here (delete it before importing)", js.ID)
	}
	provider, err := buildProvider(&req, cfg.Parallelism, r.observeStage)
	if err != nil {
		return nil, fmt.Errorf("service: rebuilding bundle session provider: %w", err)
	}

	now := time.Now()
	if int(r.live.Load()) >= cfg.MaxSessions {
		r.reapIdle(now)
	}
	for {
		n := r.live.Load()
		if int(n) >= cfg.MaxSessions {
			return nil, fmt.Errorf("%w (%d live)", errTooManySessions, n)
		}
		if r.live.CompareAndSwap(n, n+1) {
			break
		}
	}
	s := &session{
		id:         js.ID,
		measure:    *req.Measure,
		provider:   provider,
		reg:        r,
		sh:         sh,
		logs:       make(map[string][]string, len(c.logs)),
		created:    js.Created,
		lastUsed:   now,
		persistReq: js.Request,
	}
	for _, l := range c.logs {
		s.logs[l.LogID] = l.Queries
	}
	s.logBytes = logBytes
	sh.put(s)

	res := &ImportResult{Session: js.ID, Logs: len(c.logs), Skipped: st.Skipped}
	// Warm the caches from the blob records, reusing the replay
	// handler's apply rules (same decode checks, same keys, same byte
	// accounting). Only applied records are kept for the journal: a
	// blob replay would skip has no business on disk.
	apply := replayApplier{r}
	var applied []journal.Record
	count := func(o journal.Outcome, rec journal.Record, n *int) {
		switch o {
		case journal.Applied:
			applied = append(applied, rec)
			*n++
		case journal.Skipped:
			res.Skipped++
		}
	}
	for _, sn := range c.snapshots {
		count(apply.Snapshot(sn), sn, &res.Snapshots)
	}
	for _, ap := range c.approxes {
		count(apply.Approx(ap), ap, &res.ApproxIndexes)
	}
	for _, m := range c.minings {
		count(apply.Mining(m), m, &res.MineStates)
	}

	if r.persistent {
		if err := sh.journal.Append(journal.Session{ID: js.ID, Created: js.Created, Request: js.Request}); err != nil {
			sh.remove(js.ID)
			sh.cache.removePrefix(js.ID + "\x00")
			r.live.Add(-1)
			return nil, fmt.Errorf("service: journaling imported session: %w", err)
		}
		for _, l := range c.logs {
			if err := sh.journal.Append(l); err != nil {
				sh.remove(js.ID)
				sh.cache.removePrefix(js.ID + "\x00")
				r.live.Add(-1)
				return nil, fmt.Errorf("service: journaling imported log: %w", err)
			}
		}
		// The warm cache entries are a recoverable optimization: journal
		// them best-effort, like the write-through hooks.
		for _, rec := range applied {
			sh.journal.Append(rec)
		}
		// If this id ever lived (and was tombstoned) on this server, the
		// old tombstone now precedes the fresh create in the journal and
		// replayDeleted would block the restore at the next boot.
		// Compacting the shard rewrites it down to live state, dropping
		// any such tombstone. Best-effort — the janitor compacts later
		// anyway, and until then a re-imported previously-deleted id is
		// the only state at risk.
		r.compactShard(sh)
	}
	r.metrics.sessionsCreated.Inc()
	return res, nil
}
