package dpe

// Incremental mining maintenance: under a live service the log grows,
// and PR 3's append path already extends the distance matrix in
// O(n·k) — but Mine still recomputed every clustering from scratch.
// MineIncremental closes that gap: it carries a MineState from run to
// run, extends the cached matrix with only the genuinely new pairs,
// and warm-starts the algorithm from the previous result (k-medoids
// from the prior medoids, DBSCAN by eps-graph repair, Apriori by
// support-count deltas). A nil or mismatched state runs the same cold
// bootstrap Mine would and captures fresh state, so the call is always
// safe; the deterministic counters in IncrementalStats are what the
// bench harness gates the savings on.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/distance"
	"repro/internal/mining"
)

// MineState is the carried state of incremental mining over one
// (log, spec) pair: the algorithm's warm-start structure over the rows
// mined so far, plus the distance matrix (and DBSCAN's eps-graph) over
// them. It is immutable once returned — MineIncremental extends
// copies, never the state itself — so a service can cache it and serve
// concurrent readers. A MineState is only meaningful with the Provider
// and log prefix it was mined from.
//
// The matrix and eps-graph are derived data: the persisted form keeps
// only the clustering, and a decoded state has them rebuilt from the
// prepared log by the next MineIncremental (see NeedsRebuild).
type MineState struct {
	spec   MineSpec
	n      int
	matrix Matrix                 // distance-based algorithms; nil for apriori and decoded states
	kmed   *mining.KMedoidsResult // k-medoids warm start
	adj    [][]int                // dbscan eps-neighborhood graph; nil when matrix is
	labels []int                  // prior labels (dbscan, complete-link) or 0/1 outlier flags
	counts map[string]int         // apriori carried candidate supports
}

// Spec returns the mining spec the state was built under. A state only
// warm-starts a call with the identical spec.
func (s *MineState) Spec() MineSpec { return s.spec }

// Len is the number of log rows the state covers.
func (s *MineState) Len() int { return s.n }

// NeedsRebuild reports whether the state lacks the distance matrix its
// algorithm warm-starts over — true for a state decoded by
// UnmarshalMineState. The next MineIncremental rebuilds the matrix from
// the prepared log (counting the pairs) and returns a state that
// carries it, so a cache should keep that returned state instead.
func (s *MineState) NeedsRebuild() bool {
	return s.matrix == nil && s.spec.Algorithm != MineApriori
}

// SizeBytes estimates the memory the state retains, for cache byte
// budgets.
func (s *MineState) SizeBytes() int64 {
	total := int64(128)
	if s.matrix != nil {
		total += int64(s.n)*int64(s.n)*8 + int64(s.n)*24
	}
	if s.kmed != nil {
		total += int64(len(s.kmed.Medoids)+len(s.kmed.Assign))*8 + 48
	}
	for _, row := range s.adj {
		total += int64(len(row))*8 + 24
	}
	total += int64(len(s.labels)) * 8
	for k := range s.counts {
		total += int64(len(k)) + 32
	}
	return total
}

// IncrementalStats reports how a MineIncremental call arrived at its
// result. PairsComputed and Examined are deterministic work counters —
// the numbers the incmine bench experiment gates.
type IncrementalStats struct {
	// Warm reports whether the previous state was reused (matrix
	// extended, algorithm warm-started). False means the cold
	// bootstrap ran: no state, a different spec, or a shrunk log.
	Warm bool `json:"warm"`
	// ColdFallback reports that the warm path was attempted but the
	// algorithm fell back to a cold run over the (incrementally
	// extended) matrix — a rejected warm state or a cost regression.
	ColdFallback bool `json:"cold_fallback,omitempty"`
	// OldN is the row count the previous state covered (0 when cold).
	OldN int `json:"old_n"`
	// PairsComputed counts the distance pairs evaluated for the
	// matrix: oldN·k + k·(k−1)/2 warm, the full n·(n−1)/2 triangle
	// cold, 0 for apriori (which never builds a matrix). A warm run
	// from a decoded state also counts the oldN·(oldN−1)/2 pairs of
	// the rebuilt prefix.
	PairsComputed int64 `json:"pairs_computed"`
	// Examined counts the algorithm's own work: matrix entries read
	// (k-medoids, DBSCAN, including a decoded DBSCAN state's rebuilt
	// eps-graph) or transaction membership scans (apriori).
	Examined int64 `json:"examined"`
	// ChangedLabels lists the old rows whose cluster membership
	// changed relative to the previous state, after canonical
	// relabeling (nil for apriori and kNN). New rows are never listed
	// — the caller knows they are new.
	ChangedLabels []int `json:"changed_labels,omitempty"`
}

// warmCostTolerance is the relative cost-regression guard of the warm
// k-medoids path: the alternation is non-increasing, so a warm cost
// above the warm-start cost (extending the prior assignment to the new
// rows) beyond this slack means the carried state was inconsistent
// with the matrix, and the call falls back to a cold run.
const warmCostTolerance = 1e-9

// MineIncremental mines a prepared log reusing the previous call's
// MineState. When prev covers a prefix of pl under the identical spec,
// only the appended rows' distance pairs are computed (the matrix is
// spliced, stage "mine_delta") and the algorithm warm-starts from the
// prior result; otherwise the cold bootstrap runs (stage "mine",
// identical output to MinePrepared) and captures state. Either way the
// returned result matches a cold Mine over the full log — exactly for
// DBSCAN, Apriori, and the non-warm algorithms, and up to local-optimum
// equivalence (cost within tolerance) for warm k-medoids — and the
// returned state serves the next append. Approximate specs are
// rejected: the approximate path maintains its own index.
func (p *Provider) MineIncremental(ctx context.Context, pl *PreparedLog, prev *MineState, spec MineSpec) (*MineResult, *MineState, error) {
	n := pl.Len()
	if err := spec.Validate(n); err != nil {
		return nil, nil, err
	}
	if spec.Approximate {
		return nil, nil, fmt.Errorf("dpe: incremental mining is exact; approximate specs run via MinePreparedIndexed")
	}
	if prev != nil && prev.spec == spec && prev.n <= n {
		return p.mineWarm(ctx, pl, prev, spec)
	}
	return p.mineBootstrap(ctx, pl, spec)
}

// mineBootstrap is the cold path: the same work MinePrepared does,
// plus capturing the warm-start state for the next call.
func (p *Provider) mineBootstrap(ctx context.Context, pl *PreparedLog, spec MineSpec) (*MineResult, *MineState, error) {
	defer p.stage(ctx, "mine")()
	n := pl.Len()
	res := &MineResult{Incremental: &IncrementalStats{}}
	state := &MineState{spec: spec, n: n}

	if spec.Algorithm == MineApriori {
		txs, err := p.transactions(pl)
		if err != nil {
			return nil, nil, err
		}
		sets, counts, stats, err := mining.AprioriAppend(txs, 0, nil, spec.MinSupport, spec.MaxLen)
		if err != nil {
			return nil, nil, err
		}
		res.Itemsets = sets
		res.Incremental.Examined = stats.TxScans
		state.counts = counts
		return res, state, nil
	}

	m, err := p.DistanceMatrixPrepared(ctx, pl)
	if err != nil {
		return nil, nil, err
	}
	res.Matrix = m
	res.Incremental.PairsComputed = int64(n) * int64(n-1) / 2
	state.matrix = m
	if err := p.mineCold(m, spec, res, state, res.Incremental); err != nil {
		return nil, nil, err
	}
	return res, state, nil
}

// mineCold runs the algorithm from scratch over a (possibly
// incrementally extended) matrix, filling result and state.
func (p *Provider) mineCold(m Matrix, spec MineSpec, res *MineResult, state *MineState, stats *IncrementalStats) error {
	switch spec.Algorithm {
	case MineKMedoids:
		clusters, reads, err := mining.KMedoidsCounted(m, spec.K)
		if err != nil {
			return err
		}
		res.Clusters, state.kmed = clusters, clusters
		stats.Examined += reads
	case MineDBSCAN:
		adj, reads, err := mining.EpsGraph(m, spec.Eps)
		if err != nil {
			return err
		}
		labels, err := mining.DBSCANGraph(len(m), adj, spec.MinPts)
		if err != nil {
			return err
		}
		res.Labels, state.adj, state.labels = labels, adj, labels
		stats.Examined += reads
	case MineCompleteLink:
		labels, err := mining.CompleteLink(m, spec.K)
		if err != nil {
			return err
		}
		res.Labels, state.labels = labels, labels
	case MineOutliers:
		out, err := mining.Outliers(m, spec.P, spec.D)
		if err != nil {
			return err
		}
		res.Outliers = out
		state.labels = make([]int, len(out))
		for i, o := range out {
			if o {
				state.labels[i] = 1
			}
		}
	case MineKNN:
		nb, err := mining.KNN(m, spec.Query, spec.K)
		if err != nil {
			return err
		}
		res.Neighbors = nb
	default:
		return fmt.Errorf("dpe: unknown mining algorithm %d", int(spec.Algorithm))
	}
	return nil
}

// mineWarm is the incremental path: extend the carried matrix with the
// appended rows' pairs only, then warm-start the algorithm. A decoded
// state carries no matrix; its oldN×oldN prefix (and DBSCAN's
// eps-graph, or k-medoids' assignment and cost) is rebuilt from the
// prepared log first, into locals — prev is never mutated.
func (p *Provider) mineWarm(ctx context.Context, pl *PreparedLog, prev *MineState, spec MineSpec) (*MineResult, *MineState, error) {
	defer p.stage(ctx, "mine_delta")()
	n, oldN := pl.Len(), prev.n
	res := &MineResult{Incremental: &IncrementalStats{Warm: true, OldN: oldN}}
	state := &MineState{spec: spec, n: n}
	stats := res.Incremental

	if spec.Algorithm == MineApriori {
		txs, err := p.transactions(pl)
		if err != nil {
			return nil, nil, err
		}
		sets, counts, aps, err := mining.AprioriAppend(txs, oldN, prev.counts, spec.MinSupport, spec.MaxLen)
		if err != nil {
			return nil, nil, err
		}
		res.Itemsets = sets
		stats.Examined = aps.TxScans
		state.counts = counts
		return res, state, nil
	}

	prevM, prevAdj, prevKmed := prev.matrix, prev.adj, prev.kmed
	if prevM == nil {
		var err error
		if prevM, err = distance.BuildMatrix(ctx, oldN, p.parallelism, pl.prep.Distance); err != nil {
			return nil, nil, err
		}
		stats.PairsComputed += int64(oldN) * int64(oldN-1) / 2
		if prevKmed != nil {
			// The record's assignment and cost are derived from its
			// medoids and the matrix: recompute them in oldN·K reads
			// rather than trust what was decoded.
			assign := make([]int, oldN)
			cost := kmedoidsAssignCost(prevM, prevKmed.Medoids, assign, 0, oldN, &stats.Examined)
			prevKmed = &mining.KMedoidsResult{Medoids: prevKmed.Medoids, Assign: assign, Cost: cost, Iterations: prevKmed.Iterations}
		}
		if spec.Algorithm == MineDBSCAN {
			adj, reads, err := mining.EpsGraph(prevM, spec.Eps)
			if err != nil {
				return nil, nil, err
			}
			prevAdj = adj
			stats.Examined += reads
		}
	}
	if len(prevM) != oldN {
		return nil, nil, fmt.Errorf("dpe: mining state carries a %d-row matrix for %d rows", len(prevM), oldN)
	}
	rows, err := p.AppendRowsPrepared(ctx, oldN, pl)
	if err != nil {
		return nil, nil, err
	}
	m, err := SpliceMatrixRows(prevM, rows)
	if err != nil {
		return nil, nil, err
	}
	k := n - oldN
	stats.PairsComputed += int64(oldN)*int64(k) + int64(k)*int64(k-1)/2
	res.Matrix = m
	state.matrix = m

	switch spec.Algorithm {
	case MineKMedoids:
		clusters, ws, werr := mining.KMedoidsWarm(m, spec.K, prevKmed, oldN)
		if werr == nil && prevKmed != nil {
			// Cost-regression guard: extending the prior assignment to
			// the new rows bounds what the warm optimum may cost.
			var probe int64
			assign := make([]int, n)
			copy(assign, prevKmed.Assign)
			start := prevKmed.Cost + kmedoidsAssignCost(m, prevKmed.Medoids, assign, oldN, n, &probe)
			stats.Examined += probe
			if clusters.Cost > start*(1+warmCostTolerance)+warmCostTolerance {
				werr = fmt.Errorf("dpe: warm k-medoids cost %v regressed past warm-start cost %v", clusters.Cost, start)
			}
		}
		if werr != nil {
			stats.ColdFallback = true
			if err := p.mineCold(m, spec, res, state, stats); err != nil {
				return nil, nil, err
			}
		} else {
			res.Clusters, state.kmed = clusters, clusters
			stats.Examined += ws.Reads
		}
		if prevKmed != nil && res.Clusters != nil {
			stats.ChangedLabels = changedLabels(prevKmed.Assign, res.Clusters.Assign, oldN)
		}
	case MineDBSCAN:
		labels, adj, ds, derr := mining.DBSCANAppendGraph(m, spec.Eps, spec.MinPts, prevAdj)
		if derr != nil {
			stats.ColdFallback = true
			if err := p.mineCold(m, spec, res, state, stats); err != nil {
				return nil, nil, err
			}
		} else {
			res.Labels, state.adj, state.labels = labels, adj, labels
			stats.Examined += ds.PairsRead
		}
		stats.ChangedLabels = changedLabels(prev.labels, res.Labels, oldN)
	default:
		// Complete-link, outliers, and kNN have no warm-start
		// structure; the incrementally extended matrix is the whole
		// saving, the algorithm reruns cold.
		if err := p.mineCold(m, spec, res, state, stats); err != nil {
			return nil, nil, err
		}
		switch spec.Algorithm {
		case MineCompleteLink:
			stats.ChangedLabels = changedLabels(prev.labels, res.Labels, oldN)
		case MineOutliers:
			stats.ChangedLabels = changedLabels(prev.labels, state.labels, oldN)
		}
	}
	return res, state, nil
}

// kmedoidsAssignCost mirrors the mining package's warm-start
// assignment (nearest medoid, lowest index wins ties) to price the
// warm-start cost bound without exporting internals.
func kmedoidsAssignCost(m Matrix, medoids, assign []int, lo, hi int, reads *int64) float64 {
	cost := 0.0
	for i := lo; i < hi; i++ {
		best, bestD := 0, -1.0
		for c, med := range medoids {
			if d := m[i][med]; bestD < 0 || d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		cost += bestD
	}
	*reads += int64(hi-lo) * int64(len(medoids))
	return cost
}

// changedLabels lists the rows < oldN whose cluster changed between
// two labelings, compared after canonical (first-occurrence)
// relabeling so renumbered-but-identical partitions report no change.
func changedLabels(prev, next []int, oldN int) []int {
	if prev == nil || next == nil {
		return nil
	}
	cp, cn := mining.CanonicalLabels(prev), mining.CanonicalLabels(next)
	var out []int
	for i := 0; i < oldN && i < len(cp) && i < len(cn); i++ {
		if cp[i] != cn[i] {
			out = append(out, i)
		}
	}
	return out
}

// transactions renders each prepared query's element set as one
// Apriori transaction — experiment E6's idiom, served straight from
// the interned dictionary (and therefore from restored snapshots too).
func (p *Provider) transactions(pl *PreparedLog) ([]mining.Transaction, error) {
	src, ok := pl.prep.(distance.ItemSource)
	if !ok {
		return nil, fmt.Errorf("dpe: measure %s does not support itemset mining (its prepared state has no element sets)", p.measure)
	}
	n := src.Len()
	txs := make([]mining.Transaction, n)
	var buf []string
	for i := 0; i < n; i++ {
		buf = src.AppendItems(buf[:0], i)
		tx := make(mining.Transaction, len(buf))
		for _, it := range buf {
			tx[it] = true
		}
		txs[i] = tx
	}
	return txs, nil
}

// --- MineState persistence (the service's KindMining journal records) ---

// mineStateWire is the serialized form of a MineState. Version 2 holds
// the clustering only — spec, row count, labels, k-medoids result and
// apriori counts, O(n) bytes — because the matrix and eps-graph are
// cheaper to rebuild from the prepared log than to store and decode.
// Version 1 also held "matrix" and "adj"; those fields are not part of
// the struct, so encoding/json skips them and a v1 record decodes as
// v2 with its (untrusted) distances dropped. Counts are sorted by key
// so equal states marshal to identical bytes; float64 values survive
// the JSON round trip exactly.
type mineStateWire struct {
	V      int                    `json:"v"`
	Spec   MineSpec               `json:"spec"`
	N      int                    `json:"n"`
	Kmed   *mining.KMedoidsResult `json:"kmed,omitempty"`
	Labels []int                  `json:"labels,omitempty"`
	Counts []countEntry           `json:"counts,omitempty"`
}

// mineStateVersion is the version MarshalMineState writes.
const mineStateVersion = 2

type countEntry struct {
	K string `json:"k"`
	C int    `json:"c"`
}

// MarshalMineState serializes a mining state for persistence. The
// encoding is deterministic and holds only what UnmarshalMineState
// needs to warm-start identically; the distance matrix is not written.
func MarshalMineState(s *MineState) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("dpe: nil mining state")
	}
	w := mineStateWire{
		V:      mineStateVersion,
		Spec:   s.spec,
		N:      s.n,
		Kmed:   s.kmed,
		Labels: s.labels,
	}
	if s.counts != nil {
		w.Counts = make([]countEntry, 0, len(s.counts))
		for k, c := range s.counts {
			w.Counts = append(w.Counts, countEntry{K: k, C: c})
		}
		sort.Slice(w.Counts, func(i, j int) bool { return w.Counts[i].K < w.Counts[j].K })
	}
	return json.Marshal(&w)
}

// UnmarshalMineState is the inverse of MarshalMineState; it also reads
// version 1 records. The returned state carries no matrix
// (NeedsRebuild). Every field is checked against the row count and the
// spec, so a state that decodes is one MineIncremental can warm-start
// from without indexing out of range.
func UnmarshalMineState(data []byte) (*MineState, error) {
	var w mineStateWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("dpe: decoding mining state: %w", err)
	}
	if w.V != 1 && w.V != mineStateVersion {
		return nil, fmt.Errorf("dpe: unknown mining-state version %d", w.V)
	}
	s := &MineState{spec: w.Spec, n: w.N, kmed: w.Kmed, labels: w.Labels}
	if w.Counts != nil {
		s.counts = make(map[string]int, len(w.Counts))
		for _, e := range w.Counts {
			if _, dup := s.counts[e.K]; dup {
				return nil, fmt.Errorf("dpe: mining state repeats apriori count %q", e.K)
			}
			s.counts[e.K] = e.C
		}
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("dpe: invalid mining state: %w", err)
	}
	return s, nil
}

// validate checks a decoded state's fields against its row count and
// spec: only the fields its algorithm carries are present, and each is
// in range.
func (s *MineState) validate() error {
	n, spec := s.n, s.spec
	if n < 0 {
		return fmt.Errorf("negative row count %d", n)
	}
	if err := spec.Validate(n); err != nil {
		return err
	}
	if spec.Approximate {
		return fmt.Errorf("incremental mining states are never approximate")
	}
	switch spec.Algorithm {
	case MineDBSCAN, MineCompleteLink, MineOutliers:
		if len(s.labels) != n {
			return fmt.Errorf("%d labels for %d rows", len(s.labels), n)
		}
		lo, hi := 0, 1 // outlier flags
		switch spec.Algorithm {
		case MineDBSCAN:
			lo, hi = mining.Noise, n-1
		case MineCompleteLink:
			hi = spec.K - 1
		}
		for i, l := range s.labels {
			if l < lo || l > hi {
				return fmt.Errorf("label %d of row %d outside [%d,%d]", l, i, lo, hi)
			}
		}
	default:
		if s.labels != nil {
			return fmt.Errorf("%s carries no labels", spec.Algorithm)
		}
	}
	if (s.kmed != nil) != (spec.Algorithm == MineKMedoids) {
		return fmt.Errorf("k-medoids result present=%v for %s", s.kmed != nil, spec.Algorithm)
	}
	if km := s.kmed; km != nil {
		if len(km.Medoids) != spec.K {
			return fmt.Errorf("%d medoids, want %d", len(km.Medoids), spec.K)
		}
		seen := make(map[int]bool, len(km.Medoids))
		for _, med := range km.Medoids {
			if med < 0 || med >= n || seen[med] {
				return fmt.Errorf("medoid %d repeated or outside [0,%d)", med, n)
			}
			seen[med] = true
		}
		if len(km.Assign) != n {
			return fmt.Errorf("%d assignments for %d rows", len(km.Assign), n)
		}
		for i, c := range km.Assign {
			if c < 0 || c >= spec.K {
				return fmt.Errorf("assignment %d of row %d outside [0,%d)", c, i, spec.K)
			}
		}
		if math.IsNaN(km.Cost) || math.IsInf(km.Cost, 0) || km.Cost < 0 {
			return fmt.Errorf("k-medoids cost %v is not finite and non-negative", km.Cost)
		}
	}
	if s.counts != nil && spec.Algorithm != MineApriori {
		return fmt.Errorf("%s carries no apriori counts", spec.Algorithm)
	}
	for k, c := range s.counts {
		if c < 0 || c > n {
			return fmt.Errorf("apriori count %d of %q outside [0,%d]", c, k, n)
		}
	}
	return nil
}
