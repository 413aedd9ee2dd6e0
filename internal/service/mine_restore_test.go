package service

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	dpe "repro"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// TestMineStateRestoreEquivalence: a mining state comes back from a
// journal replay or a bundle import without its matrix, and the next
// append_mine rebuilds it from the prepared log. That run must be the
// run a never-restarted server makes — the same rows bit for bit, the
// same raw labels and ChangedLabels, warm — except that it also counts
// the rebuilt oldN·(oldN−1)/2 prefix pairs.
func TestMineStateRestoreEquivalence(t *testing.T) {
	ctx := context.Background()
	log := clusteredLog()
	const oldN = 10 // rows the restored state covers
	for _, measure := range []dpe.Measure{dpe.MeasureToken, dpe.MeasureStructure} {
		for _, spec := range []dpe.MineSpec{
			{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2},
			{Algorithm: dpe.MineKMedoids, K: 3},
		} {
			measure, spec := measure, spec
			t.Run(fmt.Sprintf("%s/%s", measure, spec.Algorithm), func(t *testing.T) {
				// first runs the pre-restart history on reg: a base log
				// and one append_mine, leaving a state over oldN rows.
				first := func(reg *Registry) (*session, string) {
					s, err := reg.CreateSession(&CreateSessionRequest{Measure: &measure})
					if err != nil {
						t.Fatal(err)
					}
					baseID, err := s.AddLog(log[:8])
					if err != nil {
						t.Fatal(err)
					}
					combinedID, _, _, _, err := s.AppendMine(ctx, baseID, log[8:oldN], spec)
					if err != nil {
						t.Fatal(err)
					}
					return s, combinedID
				}
				type run struct {
					rows [][]float64
					res  *dpe.MineResult
				}
				next := func(s *session, combinedID string) run {
					_, _, rows, res, err := s.AppendMine(ctx, combinedID, log[oldN:], spec)
					if err != nil {
						t.Fatal(err)
					}
					return run{rows, res}
				}

				live := NewRegistry(Config{Shards: 2})
				defer live.Close()
				want := next(first(live))

				dir := t.TempDir()
				reg := NewRegistry(persistentConfig(t, dir, 2))
				s, combinedID := first(reg)
				id := s.ID()
				reg.Close()
				replayed, err := OpenRegistry(persistentConfig(t, dir, 2))
				if err != nil {
					t.Fatal(err)
				}
				defer replayed.Close()
				s, err = replayed.Session(id)
				if err != nil {
					t.Fatal(err)
				}
				got := next(s, combinedID)
				checkRestoredRun(t, "replay", spec, oldN, got.res, want.res)
				compareRows(t, "replay", got.rows, want.rows)

				src := NewRegistry(Config{Shards: 2})
				defer src.Close()
				s, combinedID = first(src)
				var buf bytes.Buffer
				if err := src.ExportSession(s.ID(), &buf); err != nil {
					t.Fatal(err)
				}
				dst := NewRegistry(Config{Shards: 2})
				defer dst.Close()
				if _, err := dst.ImportSession(&buf); err != nil {
					t.Fatal(err)
				}
				if s, err = dst.Session(s.ID()); err != nil {
					t.Fatal(err)
				}
				got = next(s, combinedID)
				checkRestoredRun(t, "import", spec, oldN, got.res, want.res)
				compareRows(t, "import", got.rows, want.rows)
			})
		}
	}
}

// checkRestoredRun compares the first append_mine after a restore with
// the never-restarted server's.
func checkRestoredRun(t *testing.T, label string, spec dpe.MineSpec, oldN int, got, want *dpe.MineResult) {
	t.Helper()
	g, w := got.Incremental, want.Incremental
	if g == nil || !g.Warm || g.ColdFallback || !w.Warm {
		t.Fatalf("%s: restored run %+v, never-restarted run %+v, want both warm", label, g, w)
	}
	if extra := int64(oldN) * int64(oldN-1) / 2; g.PairsComputed != w.PairsComputed+extra {
		t.Errorf("%s: restored run computed %d pairs, want %d + the rebuilt prefix's %d", label, g.PairsComputed, w.PairsComputed, extra)
	}
	if !reflect.DeepEqual(g.ChangedLabels, w.ChangedLabels) {
		t.Errorf("%s: ChangedLabels %v, want %v", label, g.ChangedLabels, w.ChangedLabels)
	}
	gotLabels, wantLabels := got.Labels, want.Labels
	if spec.Algorithm == dpe.MineKMedoids {
		gotLabels, wantLabels = got.Clusters.Assign, want.Clusters.Assign
		if got.Clusters.Cost != want.Clusters.Cost || !reflect.DeepEqual(got.Clusters.Medoids, want.Clusters.Medoids) {
			t.Errorf("%s: clustering %+v, want %+v", label, got.Clusters, want.Clusters)
		}
	}
	if len(wantLabels) == 0 || !reflect.DeepEqual(gotLabels, wantLabels) {
		t.Errorf("%s: labels %v, want %v", label, gotLabels, wantLabels)
	}
}

// compareRows checks two row sets bit for bit.
func compareRows(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d entries, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: row %d entry %d = %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestRestoredMineStateRebuildsOnce: replaying the same append_mine
// after a restart hits the restored state for the combined log; the
// first hit rebuilds the matrix, and the rebuilt state replaces the
// restored one so the second hit computes no pairs.
func TestRestoredMineStateRebuildsOnce(t *testing.T) {
	ctx := context.Background()
	token := dpe.MeasureToken
	log := clusteredLog()
	spec := dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}
	src := NewRegistry(Config{Shards: 2})
	defer src.Close()
	s, err := src.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	baseID, err := s.AddLog(log[:8])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := s.AppendMine(ctx, baseID, log[8:], spec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.ExportSession(s.ID(), &buf); err != nil {
		t.Fatal(err)
	}
	dst := NewRegistry(Config{Shards: 2})
	defer dst.Close()
	if _, err := dst.ImportSession(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := dst.Session(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(log))
	for i, want := range []int64{n * (n - 1) / 2, 0} {
		_, _, _, res, err := s2.AppendMine(ctx, baseID, log[8:], spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incremental == nil || !res.Incremental.Warm || res.Incremental.PairsComputed != want {
			t.Errorf("hit %d after import: %+v, want a warm run computing %d pairs", i+1, res.Incremental, want)
		}
	}
}

// TestRestoredMineStateConcurrentHits races the first uses of an
// imported mining state: every caller rebuilds from the same shared,
// never-mutated state, and all must agree.
func TestRestoredMineStateConcurrentHits(t *testing.T) {
	ctx := context.Background()
	token := dpe.MeasureToken
	log := clusteredLog()
	spec := dpe.MineSpec{Algorithm: dpe.MineKMedoids, K: 3}
	src := NewRegistry(Config{Shards: 2})
	defer src.Close()
	s, err := src.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	baseID, err := s.AddLog(log[:8])
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, want, err := s.AppendMine(ctx, baseID, log[8:], spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.ExportSession(s.ID(), &buf); err != nil {
		t.Fatal(err)
	}
	dst := NewRegistry(Config{Shards: 2})
	defer dst.Close()
	if _, err := dst.ImportSession(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := dst.Session(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, res, err := s2.AppendMine(ctx, baseID, log[8:], spec)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(res.Clusters.Assign, want.Clusters.Assign) {
				t.Errorf("concurrent hit assigned %v, want %v", res.Clusters.Assign, want.Clusters.Assign)
			}
		}()
	}
	wg.Wait()
}

// kindCounter is a store whose journals count the records appended
// to them by kind.
type kindCounter struct {
	store.Store
	mu       sync.Mutex
	appended map[store.Kind]int
}

type countingLog struct {
	store.Log
	c *kindCounter
}

func (k *kindCounter) Open(shard int) (store.Log, error) {
	lg, err := k.Store.Open(shard)
	return countingLog{lg, k}, err
}

func (k *kindCounter) count(kind store.Kind) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.appended[kind]
}

func (l countingLog) Append(rec store.Record) error {
	l.c.mu.Lock()
	l.c.appended[rec.Kind]++
	l.c.mu.Unlock()
	return l.Log.Append(rec)
}

// exportRecords exports a populated tenant and returns its records.
func exportRecords(t *testing.T) *bundleContents {
	t.Helper()
	src := NewRegistry(Config{Shards: 2})
	defer src.Close()
	id, _, _, _, _ := populateTenant(t, src)
	var buf bytes.Buffer
	if err := src.ExportSession(id, &buf); err != nil {
		t.Fatal(err)
	}
	var c bundleContents
	if _, err := journal.ReadBundle(&buf, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.minings) == 0 || len(c.snapshots) == 0 || len(c.logs) < 2 {
		t.Fatalf("exported tenant lacks the records the test forges: %+v", c)
	}
	return &c
}

// writeRecords renders records as a bundle.
func writeRecords(t *testing.T, recs []journal.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw, err := journal.NewBundleWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := bw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (c *bundleContents) records() []journal.Record {
	var recs []journal.Record
	for _, s := range c.sessions {
		recs = append(recs, s)
	}
	for _, l := range c.logs {
		recs = append(recs, l)
	}
	for _, s := range c.snapshots {
		recs = append(recs, s)
	}
	for _, a := range c.approxes {
		recs = append(recs, a)
	}
	for _, m := range c.minings {
		recs = append(recs, m)
	}
	return recs
}

// TestImportJournalsOnlyApplied: a bundle whose mining state is forged
// (labels that do not fit its row count) imports with that record
// skipped, and the skipped record is never appended to the
// destination's journal.
func TestImportJournalsOnlyApplied(t *testing.T) {
	c := exportRecords(t)
	for i := range c.minings {
		c.minings[i].Blob = []byte(`{"v":2,"spec":{"Algorithm":"dbscan","Eps":0.4,"MinPts":2},"n":10,"labels":[0]}`)
	}
	// Any store other than store.Null makes the registry journal.
	st := &kindCounter{Store: store.Null{}, appended: map[store.Kind]int{}}
	dst := NewRegistry(Config{Shards: 2, Store: st, JanitorInterval: -1})
	defer dst.Close()
	res, err := dst.ImportSession(bytes.NewReader(writeRecords(t, c.records())))
	if err != nil {
		t.Fatal(err)
	}
	if res.MineStates != 0 || res.Skipped != len(c.minings) {
		t.Errorf("import result %+v, want every forged mining state skipped", res)
	}
	if n := st.count(store.KindMining); n != 0 {
		t.Errorf("import appended %d mining records, want 0 (none was applied)", n)
	}
	if n := st.count(store.KindSnapshot); n != res.Snapshots {
		t.Errorf("import appended %d snapshot records, want the %d applied", n, res.Snapshots)
	}
}

// TestSnapshotLengthMismatchSkipped: a prepared-state snapshot filed
// under a log id whose log has a different length is refused — a
// counted skip on replay and on import — so the log keeps serving its
// own matrix instead of another log's.
func TestSnapshotLengthMismatchSkipped(t *testing.T) {
	ctx := context.Background()
	c := exportRecords(t)
	// Swap the logs' snapshots: each now claims the other log's id.
	if len(c.snapshots) < 2 {
		t.Fatalf("want snapshots of both logs, got %d", len(c.snapshots))
	}
	forged := append([]journal.Snapshot(nil), c.snapshots...)
	forged[0].LogID, forged[1].LogID = c.snapshots[1].LogID, c.snapshots[0].LogID
	id := c.sessions[0].ID
	want := map[string]int{}
	for _, l := range c.logs {
		want[l.LogID] = len(l.Queries)
	}
	checkMatrices := func(label string, reg *Registry) {
		t.Helper()
		s, err := reg.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		for logID, n := range want {
			m, err := s.Matrix(ctx, logID)
			if err != nil {
				t.Fatal(err)
			}
			if len(m) != n {
				t.Errorf("%s: log %s (%d queries) served a %d-row matrix", label, logID, n, len(m))
			}
		}
	}

	// Import: the forged snapshots follow the genuine ones, so
	// applying them would replace the genuine cache entries.
	c.snapshots = append(c.snapshots, forged...)
	dst := NewRegistry(Config{Shards: 2})
	defer dst.Close()
	res, err := dst.ImportSession(bytes.NewReader(writeRecords(t, c.records())))
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != len(forged) || res.Snapshots != len(forged) {
		t.Errorf("import result %+v, want %d snapshots applied and %d skipped", res, len(forged), len(forged))
	}
	checkMatrices("import", dst)

	// Replay: the same records as a journal.
	dir := t.TempDir()
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := st.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	jl := journal.New(lg)
	for _, rec := range c.records() {
		if err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()
	st.Close()
	reg, err := OpenRegistry(persistentConfig(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if rec := reg.Recovery(); rec.Skipped != len(forged) || rec.Snapshots != len(forged) {
		t.Errorf("recovery %+v, want %d snapshots applied and %d skipped", rec, len(forged), len(forged))
	}
	checkMatrices("replay", reg)
}
