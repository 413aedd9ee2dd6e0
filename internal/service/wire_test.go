package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	dpe "repro"
	"repro/internal/db"
	"repro/internal/distance"
	"repro/internal/value"
)

// TestValueRoundTrip checks every value kind survives the wire exactly,
// including through JSON bytes — full-range int64s and floats must not
// pass through float64 truncation.
func TestValueRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Null(),
		value.Int(0),
		value.Int(math.MaxInt64),
		value.Int(math.MinInt64),
		value.Float(0.1),
		value.Float(1e-300),
		value.Float(-123456.789),
		value.Str(""),
		value.Str("O'Hara \x00 ünicode"),
		value.Bytes(nil),
		value.Bytes([]byte{0, 1, 2, 0xff}),
	}
	for _, v := range vals {
		wv, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		b, err := json.Marshal(wv)
		if err != nil {
			t.Fatal(err)
		}
		var decoded WireValue
		if err := json.Unmarshal(b, &decoded); err != nil {
			t.Fatal(err)
		}
		back, err := decoded.Decode()
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if back.Kind() != v.Kind() || back.Key() != v.Key() {
			t.Errorf("%v round-trips to %v (keys %q vs %q)", v, back, v.Key(), back.Key())
		}
	}
	if _, err := (WireValue{Kind: "int"}).Decode(); err == nil {
		t.Error("int without payload should fail to decode")
	}
	if _, err := (WireValue{Kind: "imaginary"}).Decode(); err == nil {
		t.Error("unknown kind should fail to decode")
	}
}

// TestCatalogRoundTrip checks a multi-table catalog (including a BYTES
// ciphertext column and NULLs) is rebuilt identically.
func TestCatalogRoundTrip(t *testing.T) {
	cat := db.NewCatalog()
	tbl := cat.MustCreate("t1", []db.Column{
		{Name: "a", Type: db.TypeInt},
		{Name: "b", Type: db.TypeString},
		{Name: "c", Type: db.TypeBytes},
	})
	tbl.MustInsert(db.Row{value.Int(1), value.Str("x"), value.Bytes([]byte{9, 8})})
	tbl.MustInsert(db.Row{value.Null(), value.Null(), value.Null()})
	cat.MustCreate("t2", []db.Column{{Name: "f", Type: db.TypeFloat}}).
		MustInsert(db.Row{value.Float(2.5)})

	wc, err := EncodeCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(wc)
	if err != nil {
		t.Fatal(err)
	}
	var decoded WireCatalog
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.TableNames(), cat.TableNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tables %v, want %v", got, want)
	}
	for _, name := range cat.TableNames() {
		orig, _ := cat.Table(name)
		got, _ := back.Table(name)
		if !reflect.DeepEqual(got.Columns, orig.Columns) {
			t.Errorf("table %q columns %v, want %v", name, got.Columns, orig.Columns)
		}
		if len(got.Rows) != len(orig.Rows) {
			t.Fatalf("table %q has %d rows, want %d", name, len(got.Rows), len(orig.Rows))
		}
		for i := range orig.Rows {
			for j := range orig.Rows[i] {
				if got.Rows[i][j].Key() != orig.Rows[i][j].Key() {
					t.Errorf("table %q cell (%d,%d): %v, want %v", name, i, j, got.Rows[i][j], orig.Rows[i][j])
				}
			}
		}
	}
}

// TestDomainsRoundTrip checks the Domains artifact survives the wire.
func TestDomainsRoundTrip(t *testing.T) {
	domains := map[string]dpe.Domain{
		"ra":    {Min: value.Float(0), Max: value.Float(360)},
		"class": {Min: value.Str("GALAXY"), Max: value.Str("STAR")},
		"nvote": {Min: value.Int(-5), Max: value.Int(1 << 60)},
	}
	wd, err := EncodeDomains(domains)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(wd)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]WireDomain
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDomains(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(domains) {
		t.Fatalf("got %d domains, want %d", len(back), len(domains))
	}
	for attr, d := range domains {
		g := back[attr]
		if g.Min.Key() != d.Min.Key() || g.Max.Key() != d.Max.Key() {
			t.Errorf("domain %q: %v..%v, want %v..%v", attr, g.Min, g.Max, d.Min, d.Max)
		}
	}
}

// TestAggregatorKeyRoundTrip checks the Paillier public key rebuilds
// with a working evaluator: the wire-reconstructed aggregator must
// produce a ciphertext the owner decrypts to the true sum.
func TestAggregatorKeyRoundTrip(t *testing.T) {
	w, err := dpe.GenerateWorkload(dpe.WorkloadConfig{Seed: "aggkey", Queries: 4, Rows: 10})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := dpe.NewOwner([]byte("aggkey-test"), w.Schema, dpe.Config{PaillierBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	key := owner.ResultAggregatorKey()
	b, err := json.Marshal(EncodeAggregatorKey(key))
	if err != nil {
		t.Fatal(err)
	}
	var decoded WireAggregatorKey
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if back.N.Cmp(key.N) != 0 || back.N2.Cmp(key.N2) != 0 {
		t.Error("aggregator key does not round-trip")
	}
	if _, err := (&WireAggregatorKey{}).Decode(); err == nil {
		t.Error("empty modulus should fail to decode")
	}
}

// readMatrixJSON decodes a WriteMatrix stream, validating the
// dimensions. The Go client reads the binary frame; this is how the
// tests read what curl gets.
func readMatrixJSON(r io.Reader) (dpe.Matrix, error) {
	var w struct {
		N    int         `json:"n"`
		Rows [][]float64 `json:"rows"`
	}
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("decoding matrix: %w", err)
	}
	if len(w.Rows) != w.N {
		return nil, fmt.Errorf("matrix has %d rows, header says %d", len(w.Rows), w.N)
	}
	for i, row := range w.Rows {
		if len(row) != w.N {
			return nil, fmt.Errorf("matrix row %d has %d entries, want %d", i, len(row), w.N)
		}
	}
	return dpe.Matrix(w.Rows), nil
}

// readAppendedRowsJSON decodes a WriteAppendedRows stream into the
// frame shape, validating the row count and widths.
func readAppendedRowsJSON(r io.Reader) (*MatrixFrame, error) {
	var a struct {
		Log    string      `json:"log"`
		N      int         `json:"n"`
		Offset int         `json:"offset"`
		Rows   [][]float64 `json:"rows"`
	}
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("decoding appended rows: %w", err)
	}
	if a.Offset < 0 || a.N < a.Offset || len(a.Rows) != a.N-a.Offset {
		return nil, fmt.Errorf("%d appended rows span %d..%d", len(a.Rows), a.Offset, a.N)
	}
	for i, row := range a.Rows {
		if len(row) != a.N {
			return nil, fmt.Errorf("appended row %d has %d entries, want %d", i, len(row), a.N)
		}
	}
	return &MatrixFrame{Log: a.Log, N: a.N, Offset: a.Offset, Rows: a.Rows}, nil
}

// wireMatrix is a deterministic symmetric n×n matrix with a zero
// diagonal, mixing the short values access-area produces with
// full-precision ones, a negative zero and a NaN payload, so bit-exact
// checks see every kind of float64.
func wireMatrix(n int) dpe.Matrix {
	vals := []float64{0.5, 1, 0.25, 1.0 / 3, 0.75, 0, 0.1, math.Copysign(0, -1), 2.0 / 7,
		math.Float64frombits(0x7ff8_0000_dead_beef)}
	m := distance.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := vals[(i*31+j*17)%len(vals)]
			m[i][j], m[j][i] = v, v
		}
	}
	return dpe.Matrix(m)
}

// sameBits reports whether two row sets hold the same float64 bit
// patterns — stricter than ==, which equates ±0 and rejects NaN.
func sameBits(a, b [][]float64) bool {
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

// TestMatrixStreamRoundTrip checks both matrix encodings: the JSON
// stream with its dimension validation, and the binary frame at n=0..3
// for whole matrices and for append frames at offsets 0, n−1 and n —
// each decoding bit for bit, with the diagonal and the mirrored half
// filled in, and re-encoding to the same bytes.
func TestMatrixStreamRoundTrip(t *testing.T) {
	m := dpe.Matrix{
		{0, 0.5, 1},
		{0.5, 0, 0.25},
		{1, 0.25, 0},
	}
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := readMatrixJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Errorf("matrix round-trips to %v, want %v", back, m)
	}
	var empty bytes.Buffer
	if err := WriteMatrix(&empty, dpe.Matrix{}); err != nil {
		t.Fatal(err)
	}
	if back, err := readMatrixJSON(bytes.NewReader(empty.Bytes())); err != nil || len(back) != 0 {
		t.Errorf("empty matrix round-trips to %v, %v", back, err)
	}
	if _, err := readMatrixJSON(bytes.NewReader([]byte(`{"n":2,"rows":[[0,1]]}`))); err == nil {
		t.Error("row-count mismatch should fail")
	}
	if _, err := readMatrixJSON(bytes.NewReader([]byte(`{"n":2,"rows":[[0],[1]]}`))); err == nil {
		t.Error("row-width mismatch should fail")
	}

	for n := 0; n <= 3; n++ {
		full := wireMatrix(n)
		offsets := []int{0}
		if n > 1 {
			offsets = append(offsets, n-1)
		}
		if n > 0 {
			offsets = append(offsets, n)
		}
		for _, offset := range offsets {
			logID := ""
			if offset > 0 {
				logID = "l-combined"
			}
			t.Run(fmt.Sprintf("binary/n=%d/offset=%d", n, offset), func(t *testing.T) {
				var frame bytes.Buffer
				if err := WriteMatrixBinary(&frame, logID, offset, full[offset:]); err != nil {
					t.Fatal(err)
				}
				if want := matrixHeaderSize + len(logID) + 8*(n-offset)*(n+offset-1)/2 + 4; frame.Len() != want {
					t.Errorf("frame is %d bytes, want %d", frame.Len(), want)
				}
				f, err := ReadMatrixBinary(bytes.NewReader(frame.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if f.Log != logID || f.N != n || f.Offset != offset || !sameBits(f.Rows, full[offset:]) {
					t.Fatalf("frame decodes to %+v, want log %q rows %d..%d of %v", f, logID, offset, n, full)
				}
				var again bytes.Buffer
				if err := WriteMatrixBinary(&again, f.Log, f.Offset, f.Rows); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), frame.Bytes()) {
					t.Error("decoded frame re-encodes to different bytes")
				}
			})
		}
	}
}

// TestReadMatrixBinaryRejects checks the malformed-frame rules: bad
// magic, unknown version, offset past n, every truncation, trailing
// bytes and a CRC mismatch. FuzzReadMatrixBinary flips every byte of
// its valid seed frames.
func TestReadMatrixBinaryRejects(t *testing.T) {
	var frame bytes.Buffer
	if err := WriteMatrixBinary(&frame, "l-x", 2, wireMatrix(4)[2:]); err != nil {
		t.Fatal(err)
	}
	valid := frame.Bytes()
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := map[string][]byte{
		"bad magic":   mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"version 2":   mutate(func(b []byte) []byte { b[4] = 2; return b }),
		"offset > n":  mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[9:], 5); return b }),
		"trailing":    mutate(func(b []byte) []byte { return append(b, 0) }),
		"CRC":         mutate(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }),
		"empty input": nil,
	}
	for name, b := range cases {
		if _, err := ReadMatrixBinary(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for i := 0; i < len(valid); i++ {
		if _, err := ReadMatrixBinary(bytes.NewReader(valid[:i])); err == nil {
			t.Errorf("truncated to %d of %d bytes: accepted", i, len(valid))
		}
	}
}

// hugeMatrixHeader is a 30-byte frame whose header claims an n×n
// matrix over a body of a dozen bytes.
func hugeMatrixHeader(n uint32) []byte {
	b := []byte(matrixMagic)
	b = append(b, matrixVersion)
	b = binary.LittleEndian.AppendUint32(b, n)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = append(b, 0)
	return append(b, make([]byte, 30-len(b))...)
}

// allocatedBy returns the bytes f allocates (runtime.MemStats
// TotalAlloc, which counts every heap allocation whether or not it
// survives).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// maxFrameAlloc bounds what decoding len bytes may allocate: a constant
// times the input plus fixed buffers, never what the header claims.
func maxFrameAlloc(len int) uint64 { return 8*uint64(len) + 256<<10 }

// TestReadMatrixBinaryHugeHeader: a header claiming a large n (up to
// 2³²−1) over a short body is an error after a small allocation, not
// an attempt to allocate what the header claims.
func TestReadMatrixBinaryHugeHeader(t *testing.T) {
	for _, n := range []uint32{4096, 1 << 20, math.MaxUint32} {
		in := hugeMatrixHeader(n)
		var err error
		alloc := allocatedBy(func() { _, err = ReadMatrixBinary(bytes.NewReader(in)) })
		if err == nil {
			t.Fatalf("n=%d frame over a short body was accepted", n)
		}
		if alloc > maxFrameAlloc(len(in)) {
			t.Errorf("n=%d: decoding %d bytes allocated %d bytes, want at most %d", n, len(in), alloc, maxFrameAlloc(len(in)))
		}
	}
}

// FuzzReadMatrixBinary feeds arbitrary bytes to the binary matrix
// decoder, the bytes every Go client reads from the matrix and
// logs:append routes. Properties: no panic; allocation bounded by the
// input length; an accepted frame re-encodes to the same bytes; and
// flipping any single byte of an accepted frame makes it rejected. The
// seed corpus under testdata/fuzz holds valid matrix and append frames
// and near-miss invalid ones, including the huge-n header.
func FuzzReadMatrixBinary(f *testing.F) {
	var frame bytes.Buffer
	if err := WriteMatrixBinary(&frame, "l-seed", 1, wireMatrix(3)[1:]); err != nil {
		f.Fatal(err)
	}
	f.Add(frame.Bytes())
	f.Add(hugeMatrixHeader(math.MaxUint32))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr *MatrixFrame
		var err error
		if alloc := allocatedBy(func() { fr, err = ReadMatrixBinary(bytes.NewReader(data)) }); alloc > maxFrameAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteMatrixBinary(&again, fr.Log, fr.Offset, fr.Rows); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted frame re-encodes to different bytes:\n%x\n%x", data, again.Bytes())
		}
		// Flip every byte of small frames, a sample of large ones.
		step := max(1, len(data)/512)
		for i := 0; i < len(data); i += step {
			b := append([]byte(nil), data...)
			b[i] ^= 1 << (i % 8)
			if _, err := ReadMatrixBinary(bytes.NewReader(b)); err == nil {
				t.Fatalf("flipping bit %d of byte %d was accepted", i%8, i)
			}
		}
	})
}

// BenchmarkMatrixWire encodes and decodes an n=600 matrix — the
// matrix-bulk shape — in both encodings, so the wire layer's cost stays
// visible next to the kernel's.
func BenchmarkMatrixWire(b *testing.B) {
	const n = 600
	m := wireMatrix(n)
	for i := range m { // JSON cannot carry the NaN payload
		for j := range m[i] {
			if math.IsNaN(m[i][j]) {
				m[i][j] = 0.125
			}
		}
	}
	var jsonBuf, binBuf bytes.Buffer
	if err := WriteMatrix(&jsonBuf, m); err != nil {
		b.Fatal(err)
	}
	if err := WriteMatrixBinary(&binBuf, "", 0, m); err != nil {
		b.Fatal(err)
	}
	b.Run("json/encode", func(b *testing.B) {
		b.SetBytes(int64(jsonBuf.Len()))
		for i := 0; i < b.N; i++ {
			if err := WriteMatrix(io.Discard, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json/decode", func(b *testing.B) {
		b.SetBytes(int64(jsonBuf.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := readMatrixJSON(bytes.NewReader(jsonBuf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary/encode", func(b *testing.B) {
		b.SetBytes(int64(binBuf.Len()))
		for i := 0; i < b.N; i++ {
			if err := WriteMatrixBinary(io.Discard, "", 0, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary/decode", func(b *testing.B) {
		b.SetBytes(int64(binBuf.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := ReadMatrixBinary(bytes.NewReader(binBuf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestMineSpecWireRoundTrip checks spec fields and the algorithm's text
// form survive the wire.
func TestMineSpecWireRoundTrip(t *testing.T) {
	spec := dpe.MineSpec{Algorithm: dpe.MineDBSCAN, K: 3, Eps: 0.4, MinPts: 2, P: 0.9, D: 0.8, Query: 5}
	b, err := json.Marshal(EncodeMineSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"dbscan"`)) {
		t.Errorf("wire spec %s should name the algorithm", b)
	}
	var decoded WireMineSpec
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	got, err := decoded.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Errorf("spec round-trips to %+v, want %+v", got, spec)
	}
	// A spec whose algorithm field is absent (or misspelled, which JSON
	// decoding silently drops) must error, not silently run k-medoids.
	var noAlgo WireMineSpec
	if err := json.Unmarshal([]byte(`{"algoritm":"knn","k":5}`), &noAlgo); err != nil {
		t.Fatal(err)
	}
	if _, err := noAlgo.Decode(); err == nil {
		t.Error("spec without an algorithm should fail to decode")
	}
}
