package distance

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/accessarea"
	"repro/internal/db"
	"repro/internal/value"
)

// snapshotLog is a small log exercising every clause the metrics care
// about: shared and distinct tokens, joins, aggregates, and predicates
// with points, ranges, and disjunctions for the access-area algebra.
var snapshotLog = []string{
	"SELECT a FROM t WHERE x = 1",
	"SELECT a, b FROM t WHERE x > 3 AND y < 10",
	"SELECT COUNT(*) FROM t WHERE x BETWEEN 2 AND 8",
	"SELECT b FROM t WHERE x = 1 OR y >= 7",
	"SELECT a FROM t",
}

func snapshotArtifacts(t *testing.T) Artifacts {
	t.Helper()
	cat := db.NewCatalog()
	table, err := cat.Create("t", []db.Column{
		{Name: "a", Type: db.TypeString},
		{Name: "b", Type: db.TypeInt},
		{Name: "x", Type: db.TypeInt},
		{Name: "y", Type: db.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := table.Insert(db.Row{
			value.Str([]string{"p", "q", "r"}[i%3]),
			value.Int(int64(i)),
			value.Int(int64(i % 5)),
			value.Int(int64(i % 9)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return Artifacts{
		Catalog: cat,
		Domains: map[string]accessarea.Domain{
			"x": {Min: value.Int(0), Max: value.Int(100)},
			"y": {Min: value.Int(0), Max: value.Int(100)},
		},
	}
}

// TestSnapshotRoundTrip is the codec's exactness contract for all four
// metrics: marshal → unmarshal must produce entry-wise identical
// distances, and marshaling twice must produce identical bytes
// (determinism — the property compaction relies on).
func TestSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	arts := snapshotArtifacts(t)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			metric, err := New(name, arts)
			if err != nil {
				t.Fatal(err)
			}
			snap, ok := metric.(Snapshotter)
			if !ok {
				t.Fatalf("metric %s does not implement Snapshotter", name)
			}
			prep, err := metric.Prepare(ctx, snapshotLog)
			if err != nil {
				t.Fatal(err)
			}
			data, err := snap.MarshalPrepared(prep)
			if err != nil {
				t.Fatal(err)
			}
			again, err := snap.MarshalPrepared(prep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Error("marshaling the same state twice produced different bytes")
			}
			restored, err := snap.UnmarshalPrepared(data)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Len() != prep.Len() {
				t.Fatalf("restored Len() = %d, want %d", restored.Len(), prep.Len())
			}
			for i := 0; i < prep.Len(); i++ {
				for j := i + 1; j < prep.Len(); j++ {
					want, err := prep.Distance(i, j)
					if err != nil {
						t.Fatal(err)
					}
					got, err := restored.Distance(i, j)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("restored distance(%d,%d) = %v, want %v", i, j, got, want)
					}
				}
			}
			// A restored state keeps extending incrementally.
			if ext, ok := metric.(Extender); ok {
				grown, err := ext.Extend(ctx, restored, []string{"SELECT b FROM t WHERE y = 2"})
				if err != nil {
					t.Fatalf("Extend over a restored state: %v", err)
				}
				if grown.Len() != prep.Len()+1 {
					t.Errorf("extended restored state Len() = %d, want %d", grown.Len(), prep.Len()+1)
				}
			}
		})
	}
}

// TestSnapshotRejectsGarbage pins the decoder's failure modes: bad
// magic, cross-metric tags, and truncation all error instead of
// producing a silently wrong prepared state.
func TestSnapshotRejectsGarbage(t *testing.T) {
	ctx := context.Background()
	arts := snapshotArtifacts(t)
	token, _ := New("token", arts)
	aa, _ := New("access-area", arts)
	prep, err := token.Prepare(ctx, snapshotLog)
	if err != nil {
		t.Fatal(err)
	}
	data, err := token.(Snapshotter).MarshalPrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := token.(Snapshotter).UnmarshalPrepared([]byte("not a snapshot")); err == nil {
		t.Error("bad magic decoded without error")
	}
	if _, err := aa.(Snapshotter).UnmarshalPrepared(data); err == nil {
		t.Error("token snapshot decoded as access-area state")
	}
	if _, err := token.(Snapshotter).UnmarshalPrepared(data[:len(data)-1]); err == nil {
		t.Error("truncated snapshot decoded without error")
	}
	if _, err := token.(Snapshotter).UnmarshalPrepared(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("snapshot with trailing bytes decoded without error")
	}
	if _, err := token.(Snapshotter).MarshalPrepared(&aaPrepared{}); err == nil {
		t.Error("marshaling a foreign prepared state succeeded")
	}
}

// TestLegacySnapshotBoundsCounts is the regression test for a legacy
// (tag 1) payload whose set count is a 40-terabyte lie: the decoder
// must refuse it from the bytes left instead of sizing an allocation
// by it, which used to end the process with a fatal out-of-memory.
func TestLegacySnapshotBoundsCounts(t *testing.T) {
	token, _ := New("token", snapshotArtifacts(t))
	for _, payload := range []string{
		"DPS1\x01\xf4\xf4\xf4\xf4\xf40",    // set count far beyond the input
		"DPS1\x01\x01\xf4\xf4\xf4\xf4\x0f", // one set, element count far beyond the input
	} {
		if _, err := token.(Snapshotter).UnmarshalPrepared([]byte(payload)); err == nil {
			t.Errorf("payload %q decoded without error", payload)
		}
	}
}

// TestSnapshotRejectsWrappedDelta is the regression test for an
// interned snapshot whose second id delta is 2^32: summed in uint32 it
// wrapped back onto id 0, so set 0 decoded as {a} with cardinality 2
// and its Jaccard distance to set 1 = {a} came out 0.5 instead of 0.
// A legacy set that repeats an element is the same lie (cardinality
// above the popcount) and is refused too.
func TestSnapshotRejectsWrappedDelta(t *testing.T) {
	token, _ := New("token", snapshotArtifacts(t))
	w := newSnapWriter(snapInternedStrings)
	w.uvarint(2) // dictionary: a, b
	w.str("a")
	w.str("b")
	w.uvarint(2)       // sets
	w.uvarint(2)       // set 0: cardinality 2
	w.uvarint(0)       // id 0
	w.uvarint(1 << 32) // id 2^32, which used to wrap to 0
	w.uvarint(1)       // set 1: cardinality 1
	w.uvarint(0)       // id 0
	if p, err := token.(Snapshotter).UnmarshalPrepared(w.buf); err == nil {
		d, _ := p.Distance(0, 1)
		t.Errorf("wrapped delta decoded without error (distance(0,1) = %v)", d)
	}

	w = newSnapWriter(snapStringSets)
	w.uvarint(2)
	w.uvarint(2) // set 0: a, a
	w.str("a")
	w.str("a")
	w.uvarint(1) // set 1: a
	w.str("a")
	if p, err := token.(Snapshotter).UnmarshalPrepared(w.buf); err == nil {
		d, _ := p.Distance(0, 1)
		t.Errorf("legacy set with a repeated element decoded without error (distance(0,1) = %v)", d)
	}
}
