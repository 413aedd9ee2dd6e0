package dpe

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/distance"
)

// mineStateLog is a structure-measure workload of n queries.
func mineStateLog(t testing.TB, n int) []string {
	t.Helper()
	w, err := GenerateWorkload(WorkloadConfig{Seed: "mine-state", Queries: n, Rows: 20, IncludeAggregates: true, IncludeJoins: true})
	if err != nil {
		t.Fatal(err)
	}
	return w.Queries
}

// bootState prepares log and bootstraps a mining state over it.
func bootState(t testing.TB, p *Provider, log []string, spec MineSpec) (*PreparedLog, *MineState) {
	t.Helper()
	pl, err := p.Prepare(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	_, state, err := p.MineIncremental(context.Background(), pl, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	return pl, state
}

// TestMineStateV2Size pins the point of the v2 codec: a DBSCAN state
// at the benchmark's size marshals to O(n) bytes, not the n×n matrix.
func TestMineStateV2Size(t *testing.T) {
	const n = 592
	p, err := NewProvider(MeasureStructure)
	if err != nil {
		t.Fatal(err)
	}
	_, state := bootState(t, p, mineStateLog(t, n), MineSpec{Algorithm: MineDBSCAN, Eps: 0.3, MinPts: 4})
	blob, err := MarshalMineState(state)
	if err != nil {
		t.Fatal(err)
	}
	if limit := 64*n + 1024; len(blob) >= limit {
		t.Errorf("v2 DBSCAN state at n=%d marshals to %d bytes, want under %d", n, len(blob), limit)
	}
}

// v1Blob renders a state in the version-1 layout, matrix and
// eps-graph included, as older binaries journaled it.
func v1Blob(t *testing.T, s *MineState, m Matrix, adj [][]int) []byte {
	t.Helper()
	blob, err := json.Marshal(map[string]any{
		"v": 1, "spec": s.spec, "n": s.n, "matrix": m, "kmed": s.kmed, "adj": adj, "labels": s.labels,
	})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestMineStateV1TamperedMatrixIgnored: a version-1 record still
// decodes, but its matrix and eps-graph are not trusted — the next warm
// run rebuilds them from the prepared log, so a record whose distances
// were forged yields the labels of the genuine distances.
func TestMineStateV1TamperedMatrixIgnored(t *testing.T) {
	ctx := context.Background()
	p, err := NewProvider(MeasureStructure)
	if err != nil {
		t.Fatal(err)
	}
	log := mineStateLog(t, 40)
	for _, spec := range []MineSpec{
		{Algorithm: MineDBSCAN, Eps: 0.3, MinPts: 3},
		{Algorithm: MineKMedoids, K: 4},
	} {
		t.Run(spec.Algorithm.String(), func(t *testing.T) {
			pl, state := bootState(t, p, log[:32], spec)
			// Forge: every pair at distance 0, every point its
			// neighbors' neighbor.
			forged := distance.NewMatrix(32)
			adj := make([][]int, 32)
			for i := range adj {
				for j := range adj {
					if i != j {
						adj[i] = append(adj[i], j)
					}
				}
			}
			restored, err := UnmarshalMineState(v1Blob(t, state, forged, adj))
			if err != nil {
				t.Fatalf("v1 record rejected: %v", err)
			}
			if !restored.NeedsRebuild() {
				t.Fatal("a decoded state kept a matrix")
			}
			plAll, err := p.ExtendPrepared(ctx, pl, log[32:])
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := p.MineIncremental(ctx, plAll, state, spec)
			if err != nil {
				t.Fatal(err)
			}
			got, next, err := p.MineIncremental(ctx, plAll, restored, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Incremental.Warm || got.Incremental.ColdFallback {
				t.Errorf("restored run = %+v, want warm", got.Incremental)
			}
			if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Clusters, want.Clusters) {
				t.Errorf("restored run labels differ from the untampered run's")
			}
			if !reflect.DeepEqual(got.Matrix, want.Matrix) {
				t.Error("restored run matrix differs from the untampered run's")
			}
			if next.NeedsRebuild() || !restored.NeedsRebuild() {
				t.Error("the rebuilt matrix must land in the returned state, not in prev")
			}
		})
	}
}

// TestMineStateForgedKMedoidsRecomputed: a k-medoids record's
// assignment and cost are derived from its medoids, so a warm run
// from a restored state recomputes them over the rebuilt prefix. A
// record whose assignment was forged to all 0, or whose cost was
// forged — both still in range, so both decode — gives the result of
// the untampered record, warm, with the oldN·K recomputation reads
// counted in Examined.
func TestMineStateForgedKMedoidsRecomputed(t *testing.T) {
	ctx := context.Background()
	p, err := NewProvider(MeasureStructure)
	if err != nil {
		t.Fatal(err)
	}
	log := mineStateLog(t, 40)
	const oldN = 32
	spec := MineSpec{Algorithm: MineKMedoids, K: 4}
	pl, state := bootState(t, p, log[:oldN], spec)
	plAll, err := p.ExtendPrepared(ctx, pl, log[oldN:])
	if err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalMineState(state)
	if err != nil {
		t.Fatal(err)
	}
	restore := func(forge func(kmed map[string]any)) *MineState {
		t.Helper()
		var rec map[string]any
		if err := json.Unmarshal(blob, &rec); err != nil {
			t.Fatal(err)
		}
		forge(rec["kmed"].(map[string]any))
		forged, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := UnmarshalMineState(forged)
		if err != nil {
			t.Fatalf("in-range forgery rejected: %v", err)
		}
		return s
	}
	want, _, err := p.MineIncremental(ctx, plAll, restore(func(map[string]any) {}), spec)
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := p.MineIncremental(ctx, plAll, state, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Incremental.Warm || want.Incremental.ColdFallback || !reflect.DeepEqual(want.Clusters, live.Clusters) {
		t.Fatalf("untampered restore = %+v %+v, want the live run's warm clustering %+v", want.Incremental, want.Clusters, live.Clusters)
	}
	if extra := int64(oldN * spec.K); want.Incremental.Examined < live.Incremental.Examined+extra {
		t.Errorf("restored run examined %d entries, want the live run's %d plus the %d-read recomputation",
			want.Incremental.Examined, live.Incremental.Examined, extra)
	}
	for name, forge := range map[string]func(kmed map[string]any){
		"assign all 0": func(kmed map[string]any) {
			assign := kmed["Assign"].([]any)
			for i := range assign {
				assign[i] = 0
			}
		},
		"cost 0":    func(kmed map[string]any) { kmed["Cost"] = 0 },
		"cost 1000": func(kmed map[string]any) { kmed["Cost"] = 1000 },
	} {
		t.Run(name, func(t *testing.T) {
			got, _, err := p.MineIncremental(ctx, plAll, restore(forge), spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Clusters, want.Clusters) || !reflect.DeepEqual(got.Incremental, want.Incremental) {
				t.Errorf("forged record gives %+v %+v, want %+v %+v", got.Clusters, got.Incremental, want.Clusters, want.Incremental)
			}
		})
	}
}

// TestMineStateRoundTrip: every algorithm's state survives
// marshal → unmarshal → marshal byte for byte, and the decoded state
// warm-starts to the same result as the live one, paying exactly the
// rebuilt prefix's pairs on top.
func TestMineStateRoundTrip(t *testing.T) {
	ctx := context.Background()
	p, err := NewProvider(MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	log := mineStateLog(t, 24)
	const oldN = 18
	for _, spec := range []MineSpec{
		{Algorithm: MineDBSCAN, Eps: 0.4, MinPts: 2},
		{Algorithm: MineKMedoids, K: 3},
		{Algorithm: MineCompleteLink, K: 3},
		{Algorithm: MineOutliers, P: 0.5, D: 0.6},
		{Algorithm: MineKNN, K: 3, Query: 2},
		{Algorithm: MineApriori, MinSupport: 3, MaxLen: 2},
	} {
		t.Run(spec.Algorithm.String(), func(t *testing.T) {
			pl, state := bootState(t, p, log[:oldN], spec)
			blob, err := MarshalMineState(state)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := UnmarshalMineState(blob)
			if err != nil {
				t.Fatal(err)
			}
			again, err := MarshalMineState(restored)
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(blob) {
				t.Errorf("re-marshal differs:\n%s\n%s", blob, again)
			}
			plAll, err := p.ExtendPrepared(ctx, pl, log[oldN:])
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := p.MineIncremental(ctx, plAll, state, spec)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := p.MineIncremental(ctx, plAll, restored, spec)
			if err != nil {
				t.Fatal(err)
			}
			extra := int64(0)
			if spec.Algorithm != MineApriori {
				extra = oldN * (oldN - 1) / 2
			}
			if got.Incremental.PairsComputed != want.Incremental.PairsComputed+extra {
				t.Errorf("restored run computed %d pairs, want %d + %d", got.Incremental.PairsComputed, want.Incremental.PairsComputed, extra)
			}
			gotInc, wantInc := *got.Incremental, *want.Incremental
			gotInc.PairsComputed, gotInc.Examined = 0, 0
			wantInc.PairsComputed, wantInc.Examined = 0, 0
			got.Incremental, want.Incremental = nil, nil
			if !reflect.DeepEqual(gotInc, wantInc) || !reflect.DeepEqual(got, want) {
				t.Errorf("restored run differs from the live one:\n got %+v %+v\nwant %+v %+v", gotInc, got, wantInc, want)
			}
		})
	}
}

// TestUnmarshalMineStateRejects: a record whose fields disagree with
// its row count or spec is an error, never a state that could index
// out of range later. The accepted records are the rejected ones'
// nearest valid neighbours, so each rejection is for the field it
// breaks.
func TestUnmarshalMineStateRejects(t *testing.T) {
	for _, blob := range []string{
		`{"v":2,"spec":{"Algorithm":"dbscan","Eps":0.4,"MinPts":2},"n":2,"labels":[0,1]}`,
		`{"v":2,"spec":{"Algorithm":"complete-link","K":2},"n":2,"labels":[0,1]}`,
		`{"v":2,"spec":{"Algorithm":"outliers","P":0.5,"D":0.5},"n":2,"labels":[0,1]}`,
		`{"v":2,"spec":{"Algorithm":"knn","K":1,"Query":0},"n":2}`,
		`{"v":2,"spec":{"Algorithm":"kmedoids","K":2},"n":3,"kmed":{"Medoids":[0,1],"Assign":[0,0,1],"Cost":1}}`,
		`{"v":2,"spec":{"Algorithm":"apriori","MinSupport":1,"MaxLen":1},"n":2,"counts":[{"k":"a","c":1},{"k":"b","c":2}]}`,
		`{"v":1,"spec":{"Algorithm":"dbscan","Eps":0.4,"MinPts":2},"n":2,"matrix":[[0,9],[9,0]],"adj":[[5],[]],"labels":[0,1]}`,
	} {
		if _, err := UnmarshalMineState([]byte(blob)); err != nil {
			t.Errorf("rejected valid %s: %v", blob, err)
		}
	}
	for _, blob := range []string{
		``,
		`null`,
		`{"v":3,"spec":{"Algorithm":"dbscan","Eps":0.4,"MinPts":2},"n":2,"labels":[0,0]}`,
		`{"v":2,"spec":{"Algorithm":"dbscan","Eps":0.4,"MinPts":2},"n":-1}`,
		`{"v":2,"spec":{"Algorithm":"dbscan","Eps":0.4,"MinPts":2},"n":3,"labels":[0,0]}`,
		`{"v":2,"spec":{"Algorithm":"dbscan","Eps":0.4,"MinPts":2},"n":2,"labels":[0,2]}`,
		`{"v":2,"spec":{"Algorithm":"dbscan","Eps":0,"MinPts":2},"n":2,"labels":[0,0]}`,
		`{"v":2,"spec":{"Algorithm":"dbscan","Eps":0.4,"MinPts":2,"Approximate":true},"n":2,"labels":[0,0]}`,
		`{"v":2,"spec":{"Algorithm":"complete-link","K":2},"n":2,"labels":[0,2]}`,
		`{"v":2,"spec":{"Algorithm":"outliers","P":0.5,"D":0.5},"n":2,"labels":[0,2]}`,
		`{"v":2,"spec":{"Algorithm":"knn","K":1,"Query":0},"n":2,"labels":[0,0]}`,
		`{"v":2,"spec":{"Algorithm":"kmedoids","K":2},"n":3}`,
		`{"v":2,"spec":{"Algorithm":"kmedoids","K":2},"n":3,"kmed":{"Medoids":[0],"Assign":[0,0,0],"Cost":1}}`,
		`{"v":2,"spec":{"Algorithm":"kmedoids","K":2},"n":3,"kmed":{"Medoids":[1,1],"Assign":[0,0,1],"Cost":1}}`,
		`{"v":2,"spec":{"Algorithm":"kmedoids","K":2},"n":3,"kmed":{"Medoids":[0,3],"Assign":[0,0,1],"Cost":1}}`,
		`{"v":2,"spec":{"Algorithm":"kmedoids","K":2},"n":3,"kmed":{"Medoids":[0,1],"Assign":[0,0],"Cost":1}}`,
		`{"v":2,"spec":{"Algorithm":"kmedoids","K":2},"n":3,"kmed":{"Medoids":[0,1],"Assign":[0,2,1],"Cost":1}}`,
		`{"v":2,"spec":{"Algorithm":"kmedoids","K":2},"n":3,"kmed":{"Medoids":[0,1],"Assign":[0,0,1],"Cost":-1}}`,
		`{"v":2,"spec":{"Algorithm":"kmedoids","K":4},"n":3,"kmed":{"Medoids":[0,1,2,3],"Assign":[0,1,2],"Cost":1}}`,
		`{"v":2,"spec":{"Algorithm":"dbscan","Eps":0.4,"MinPts":2},"n":1,"labels":[0],"kmed":{"Medoids":[0],"Assign":[0],"Cost":0}}`,
		`{"v":2,"spec":{"Algorithm":"apriori","MinSupport":1,"MaxLen":1},"n":2,"counts":[{"k":"a","c":1},{"k":"a","c":2}]}`,
		`{"v":2,"spec":{"Algorithm":"apriori","MinSupport":1,"MaxLen":1},"n":2,"counts":[{"k":"a","c":3}]}`,
		`{"v":2,"spec":{"Algorithm":"knn","K":1,"Query":0},"n":2,"counts":[{"k":"a","c":1}]}`,
	} {
		if s, err := UnmarshalMineState([]byte(blob)); err == nil {
			t.Errorf("accepted %s as %+v", blob, s)
		}
	}
}

// checkMineStateValid restates the codec's validation rules
// independently of MineState.validate, for the fuzz target.
func checkMineStateValid(s *MineState) error {
	if err := s.spec.Validate(s.n); err != nil {
		return err
	}
	if s.matrix != nil || s.adj != nil {
		return fmt.Errorf("decoded state carries derived data")
	}
	switch s.spec.Algorithm {
	case MineDBSCAN, MineCompleteLink, MineOutliers:
		if len(s.labels) != s.n {
			return fmt.Errorf("%d labels for n=%d", len(s.labels), s.n)
		}
	}
	if s.spec.Algorithm == MineKMedoids {
		km := s.kmed
		if km == nil || len(km.Medoids) != s.spec.K || len(km.Assign) != s.n {
			return fmt.Errorf("k-medoids result %+v does not fit K=%d n=%d", km, s.spec.K, s.n)
		}
		seen := map[int]bool{}
		for _, m := range km.Medoids {
			if m < 0 || m >= s.n || seen[m] {
				return fmt.Errorf("medoids %v", km.Medoids)
			}
			seen[m] = true
		}
		for _, a := range km.Assign {
			if a < 0 || a >= s.spec.K {
				return fmt.Errorf("assignment %d", a)
			}
		}
		if math.IsNaN(km.Cost) || math.IsInf(km.Cost, 0) || km.Cost < 0 {
			return fmt.Errorf("cost %v", km.Cost)
		}
	}
	return nil
}

// FuzzUnmarshalMineState feeds arbitrary bytes to the mining-state
// decoder (the blob of every journaled and imported KindMining
// record). Properties: no panic; an accepted state passes the
// validation rules; and marshal → unmarshal → marshal is byte-stable.
// The seed corpus under testdata/fuzz holds one valid state per
// algorithm, a v1 record, and near-miss invalid ones.
func FuzzUnmarshalMineState(f *testing.F) {
	f.Add([]byte(`{"v":2,"spec":{"Algorithm":"dbscan","Eps":0.4,"MinPts":2},"n":3,"labels":[0,0,-1]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalMineState(data)
		if err != nil {
			return
		}
		if err := checkMineStateValid(s); err != nil {
			t.Fatalf("accepted an invalid state: %v", err)
		}
		blob, err := MarshalMineState(s)
		if err != nil {
			t.Fatalf("accepted state does not marshal: %v", err)
		}
		s2, err := UnmarshalMineState(blob)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", blob, err)
		}
		blob2, err := MarshalMineState(s2)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != string(blob2) {
			t.Fatalf("marshal not stable:\n%s\n%s", blob, blob2)
		}
	})
}
