// Package service turns the in-process provider session (dpe.Provider)
// into a networked, multi-tenant provider service — the paper's
// deployment model made literal. A data owner encrypts the Table I
// shared artifacts (query log, database contents, attribute domains),
// ships them over the wire to an untrusted dpeserver, and mines on
// ciphertext remotely.
//
// The package has three layers:
//
//   - wire codecs (this file): JSON encodings for the shared artifacts —
//     values, catalogs, domains, the aggregate-evaluation public key,
//     mining specs/results — and streamed distance matrices, as JSON or
//     as a binary little-endian float64 frame. The codecs are exact: a
//     value round-trips bit-identically, so distance preservation
//     (Definition 1) survives the network hop.
//   - a session registry (registry.go): concurrency-safe multi-tenant
//     state. A session is created once from a measure plus artifacts;
//     logs are uploaded once and addressed by content hash; the metric's
//     expensive per-log Prepared state is reused across matrix, row, and
//     mine calls through an LRU cache with byte and entry budgets.
//   - HTTP (handler.go, client.go): a stdlib net/http handler exposing
//     the registry under /v1, and a Client whose Session implements
//     dpe.ProviderAPI, so owner-side code runs against a local Provider
//     or a remote dpeserver interchangeably.
package service

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/big"
	"net/http"

	dpe "repro"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/value"
)

// WireValue is the JSON form of one SQL value. Exactly one payload field
// is set, matching Kind; bytes (ciphertexts) travel base64-encoded.
// Integers decode through strconv, not float64, so 64-bit ciphertext
// payloads round-trip exactly.
type WireValue struct {
	Kind  string   `json:"kind"`
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	Str   *string  `json:"str,omitempty"`
	Bytes []byte   `json:"bytes,omitempty"`
}

// EncodeValue converts a value to its wire form.
func EncodeValue(v value.Value) (WireValue, error) {
	switch v.Kind() {
	case value.KindNull:
		return WireValue{Kind: "null"}, nil
	case value.KindInt:
		i := v.AsInt()
		return WireValue{Kind: "int", Int: &i}, nil
	case value.KindFloat:
		f := v.AsFloat()
		return WireValue{Kind: "float", Float: &f}, nil
	case value.KindString:
		s := v.AsString()
		return WireValue{Kind: "str", Str: &s}, nil
	case value.KindBytes:
		return WireValue{Kind: "bytes", Bytes: v.AsBytes()}, nil
	default:
		return WireValue{}, fmt.Errorf("service: unknown value kind %v", v.Kind())
	}
}

// Decode converts the wire form back to a value.
func (w WireValue) Decode() (value.Value, error) {
	switch w.Kind {
	case "null":
		return value.Null(), nil
	case "int":
		if w.Int == nil {
			return value.Value{}, fmt.Errorf("service: int value without payload")
		}
		return value.Int(*w.Int), nil
	case "float":
		if w.Float == nil {
			return value.Value{}, fmt.Errorf("service: float value without payload")
		}
		return value.Float(*w.Float), nil
	case "str":
		if w.Str == nil {
			return value.Value{}, fmt.Errorf("service: str value without payload")
		}
		return value.Str(*w.Str), nil
	case "bytes":
		return value.Bytes(w.Bytes), nil
	default:
		return value.Value{}, fmt.Errorf("service: unknown wire value kind %q", w.Kind)
	}
}

// WireColumn is the JSON form of one table column.
type WireColumn struct {
	Name string `json:"name"`
	Type string `json:"type"` // INT|FLOAT|STRING|BYTES
}

// WireTable is the JSON form of one relation.
type WireTable struct {
	Name    string        `json:"name"`
	Columns []WireColumn  `json:"columns"`
	Rows    [][]WireValue `json:"rows"`
}

// WireCatalog is the JSON form of the DB-Content shared artifact: the
// (encrypted) database the result-distance measure executes over.
type WireCatalog struct {
	Tables []WireTable `json:"tables"`
}

func parseColumnType(s string) (db.ColumnType, error) {
	for _, t := range []db.ColumnType{db.TypeInt, db.TypeFloat, db.TypeString, db.TypeBytes} {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("service: unknown column type %q", s)
}

// EncodeCatalog converts a catalog (tables in name order) to wire form.
func EncodeCatalog(c *dpe.Catalog) (*WireCatalog, error) {
	out := &WireCatalog{}
	for _, name := range c.TableNames() {
		t, err := c.Table(name)
		if err != nil {
			return nil, err
		}
		wt := WireTable{Name: name, Columns: make([]WireColumn, len(t.Columns))}
		for i, col := range t.Columns {
			wt.Columns[i] = WireColumn{Name: col.Name, Type: col.Type.String()}
		}
		wt.Rows = make([][]WireValue, len(t.Rows))
		for i, row := range t.Rows {
			wr := make([]WireValue, len(row))
			for j, v := range row {
				wv, err := EncodeValue(v)
				if err != nil {
					return nil, fmt.Errorf("service: table %q row %d: %w", name, i, err)
				}
				wr[j] = wv
			}
			wt.Rows[i] = wr
		}
		out.Tables = append(out.Tables, wt)
	}
	return out, nil
}

// Decode rebuilds the catalog, re-validating every row against its
// table's declared column types.
func (w *WireCatalog) Decode() (*dpe.Catalog, error) {
	cat := db.NewCatalog()
	for _, wt := range w.Tables {
		cols := make([]db.Column, len(wt.Columns))
		for i, wc := range wt.Columns {
			t, err := parseColumnType(wc.Type)
			if err != nil {
				return nil, fmt.Errorf("service: table %q column %q: %w", wt.Name, wc.Name, err)
			}
			cols[i] = db.Column{Name: wc.Name, Type: t}
		}
		table, err := cat.Create(wt.Name, cols)
		if err != nil {
			return nil, err
		}
		for i, wr := range wt.Rows {
			row := make(db.Row, len(wr))
			for j, wv := range wr {
				v, err := wv.Decode()
				if err != nil {
					return nil, fmt.Errorf("service: table %q row %d: %w", wt.Name, i, err)
				}
				row[j] = v
			}
			if err := table.Insert(row); err != nil {
				return nil, fmt.Errorf("service: table %q row %d: %w", wt.Name, i, err)
			}
		}
	}
	return cat, nil
}

// WireDomain is the JSON form of one attribute domain (the Domains
// shared artifact of the access-area measure).
type WireDomain struct {
	Min WireValue `json:"min"`
	Max WireValue `json:"max"`
}

// EncodeDomains converts a domain map to wire form.
func EncodeDomains(domains map[string]dpe.Domain) (map[string]WireDomain, error) {
	out := make(map[string]WireDomain, len(domains))
	for attr, d := range domains {
		min, err := EncodeValue(d.Min)
		if err != nil {
			return nil, fmt.Errorf("service: domain %q: %w", attr, err)
		}
		max, err := EncodeValue(d.Max)
		if err != nil {
			return nil, fmt.Errorf("service: domain %q: %w", attr, err)
		}
		out[attr] = WireDomain{Min: min, Max: max}
	}
	return out, nil
}

// DecodeDomains is the inverse of EncodeDomains.
func DecodeDomains(domains map[string]WireDomain) (map[string]dpe.Domain, error) {
	out := make(map[string]dpe.Domain, len(domains))
	for attr, wd := range domains {
		min, err := wd.Min.Decode()
		if err != nil {
			return nil, fmt.Errorf("service: domain %q: %w", attr, err)
		}
		max, err := wd.Max.Decode()
		if err != nil {
			return nil, fmt.Errorf("service: domain %q: %w", attr, err)
		}
		out[attr] = dpe.Domain{Min: min, Max: max}
	}
	return out, nil
}

// WireAggregatorKey is the JSON form of the owner's aggregate-evaluation
// public key (Paillier modulus). It carries no secret.
type WireAggregatorKey struct {
	N []byte `json:"n"`
}

// EncodeAggregatorKey converts the public key to wire form.
func EncodeAggregatorKey(pk *dpe.AggregatorKey) *WireAggregatorKey {
	return &WireAggregatorKey{N: pk.N.Bytes()}
}

// Decode rebuilds the public key (recomputing n²).
func (w *WireAggregatorKey) Decode() (*dpe.AggregatorKey, error) {
	n := new(big.Int).SetBytes(w.N)
	if n.Sign() <= 0 {
		return nil, fmt.Errorf("service: aggregator key modulus must be positive")
	}
	return &dpe.AggregatorKey{N: n, N2: new(big.Int).Mul(n, n)}, nil
}

// WireMineSpec is the JSON form of a mining request's parameters. The
// algorithm travels as its canonical name ("k-medoids", "dbscan", ...)
// and is required: a pointer so an absent (or misspelled) field is an
// error instead of silently defaulting to k-medoids.
type WireMineSpec struct {
	Algorithm   *dpe.MiningAlgorithm `json:"algorithm"`
	K           int                  `json:"k,omitempty"`
	Eps         float64              `json:"eps,omitempty"`
	MinPts      int                  `json:"min_pts,omitempty"`
	P           float64              `json:"p,omitempty"`
	D           float64              `json:"d,omitempty"`
	Query       int                  `json:"query,omitempty"`
	MinSupport  int                  `json:"min_support,omitempty"`
	MaxLen      int                  `json:"max_len,omitempty"`
	Approximate bool                 `json:"approximate,omitempty"`
}

// EncodeMineSpec converts a spec to wire form.
func EncodeMineSpec(s dpe.MineSpec) WireMineSpec {
	return WireMineSpec{Algorithm: &s.Algorithm, K: s.K, Eps: s.Eps,
		MinPts: s.MinPts, P: s.P, D: s.D, Query: s.Query,
		MinSupport: s.MinSupport, MaxLen: s.MaxLen, Approximate: s.Approximate}
}

// Decode converts the wire form back to a spec, rejecting a spec with
// no algorithm.
func (w WireMineSpec) Decode() (dpe.MineSpec, error) {
	if w.Algorithm == nil {
		return dpe.MineSpec{}, fmt.Errorf("service: mine spec is missing the algorithm (want k-medoids|dbscan|complete-link|outliers|knn|apriori)")
	}
	return dpe.MineSpec{Algorithm: *w.Algorithm, K: w.K, Eps: w.Eps,
		MinPts: w.MinPts, P: w.P, D: w.D, Query: w.Query,
		MinSupport: w.MinSupport, MaxLen: w.MaxLen, Approximate: w.Approximate}, nil
}

// WireClusters is the JSON form of a k-medoids result.
type WireClusters struct {
	Medoids    []int   `json:"medoids"`
	Assign     []int   `json:"assign"`
	Cost       float64 `json:"cost"`
	Iterations int     `json:"iterations"`
}

// WireItemset is the JSON form of one frequent itemset.
type WireItemset struct {
	Items   []string `json:"items"`
	Support int      `json:"support"`
}

// WireIncrementalStats is the JSON form of an incremental-mining
// call's work counters and label delta.
type WireIncrementalStats struct {
	Warm          bool  `json:"warm"`
	ColdFallback  bool  `json:"cold_fallback,omitempty"`
	OldN          int   `json:"old_n"`
	PairsComputed int64 `json:"pairs_computed"`
	Examined      int64 `json:"examined"`
	ChangedLabels []int `json:"changed_labels,omitempty"`
}

// WireMineResult is the JSON form of a mining response: the distance
// matrix (absent for approximate and apriori runs, which never build
// it) plus exactly one algorithm-specific field. CandidatePairs
// reports an approximate run's pair budget; Incremental appears only
// on append_mine responses.
type WireMineResult struct {
	Matrix         [][]float64           `json:"matrix"`
	Clusters       *WireClusters         `json:"clusters,omitempty"`
	Labels         []int                 `json:"labels,omitempty"`
	Outliers       []bool                `json:"outliers,omitempty"`
	Neighbors      []int                 `json:"neighbors,omitempty"`
	Itemsets       []WireItemset         `json:"itemsets,omitempty"`
	CandidatePairs int                   `json:"candidate_pairs,omitempty"`
	Incremental    *WireIncrementalStats `json:"incremental,omitempty"`
}

// EncodeMineResult converts a mining result to wire form.
func EncodeMineResult(r *dpe.MineResult) *WireMineResult {
	out := &WireMineResult{
		Matrix:         r.Matrix,
		Labels:         r.Labels,
		Outliers:       r.Outliers,
		Neighbors:      r.Neighbors,
		CandidatePairs: r.CandidatePairs,
	}
	if r.Clusters != nil {
		out.Clusters = &WireClusters{
			Medoids:    r.Clusters.Medoids,
			Assign:     r.Clusters.Assign,
			Cost:       r.Clusters.Cost,
			Iterations: r.Clusters.Iterations,
		}
	}
	for _, fs := range r.Itemsets {
		out.Itemsets = append(out.Itemsets, WireItemset{Items: fs.Items, Support: fs.Support})
	}
	if r.Incremental != nil {
		out.Incremental = &WireIncrementalStats{
			Warm:          r.Incremental.Warm,
			ColdFallback:  r.Incremental.ColdFallback,
			OldN:          r.Incremental.OldN,
			PairsComputed: r.Incremental.PairsComputed,
			Examined:      r.Incremental.Examined,
			ChangedLabels: r.Incremental.ChangedLabels,
		}
	}
	return out
}

// Decode converts the wire form back to a mining result.
func (w *WireMineResult) Decode() *dpe.MineResult {
	out := &dpe.MineResult{
		Matrix:         w.Matrix,
		Labels:         w.Labels,
		Outliers:       w.Outliers,
		Neighbors:      w.Neighbors,
		CandidatePairs: w.CandidatePairs,
	}
	if w.Clusters != nil {
		out.Clusters = &dpe.KMedoidsResult{
			Medoids:    w.Clusters.Medoids,
			Assign:     w.Clusters.Assign,
			Cost:       w.Clusters.Cost,
			Iterations: w.Clusters.Iterations,
		}
	}
	for _, fs := range w.Itemsets {
		out.Itemsets = append(out.Itemsets, dpe.FrequentItemset{Items: fs.Items, Support: fs.Support})
	}
	if w.Incremental != nil {
		out.Incremental = &dpe.IncrementalStats{
			Warm:          w.Incremental.Warm,
			ColdFallback:  w.Incremental.ColdFallback,
			OldN:          w.Incremental.OldN,
			PairsComputed: w.Incremental.PairsComputed,
			Examined:      w.Incremental.Examined,
			ChangedLabels: w.Incremental.ChangedLabels,
		}
	}
	return out
}

// WireCounterExample is the JSON form of one Definition 1 violation.
type WireCounterExample struct {
	I     int     `json:"i"`
	J     int     `json:"j"`
	Plain float64 `json:"plain"`
	Enc   float64 `json:"enc"`
}

// WirePreservationReport is the JSON form of a Definition 1 check.
type WirePreservationReport struct {
	Pairs           int                  `json:"pairs"`
	MaxAbsError     float64              `json:"max_abs_error"`
	Preserved       bool                 `json:"preserved"`
	CounterExamples []WireCounterExample `json:"counter_examples,omitempty"`
	Error           string               `json:"error,omitempty"`
}

// EncodePreservationReport converts a report to wire form.
func EncodePreservationReport(r *dpe.PreservationReport) *WirePreservationReport {
	out := &WirePreservationReport{
		Pairs:       r.Pairs,
		MaxAbsError: r.MaxAbsError,
		Preserved:   r.Preserved,
		Error:       r.Error,
	}
	for _, ce := range r.CounterExamples {
		out.CounterExamples = append(out.CounterExamples,
			WireCounterExample{I: ce.I, J: ce.J, Plain: ce.Plain, Enc: ce.Enc})
	}
	return out
}

// Decode converts the wire form back to a report.
func (w *WirePreservationReport) Decode() *dpe.PreservationReport {
	out := &dpe.PreservationReport{
		Pairs:       w.Pairs,
		MaxAbsError: w.MaxAbsError,
		Preserved:   w.Preserved,
		Error:       w.Error,
	}
	for _, ce := range w.CounterExamples {
		out.CounterExamples = append(out.CounterExamples,
			core.CounterExample{I: ce.I, J: ce.J, Plain: ce.Plain, Enc: ce.Enc})
	}
	return out
}

// matrixFlushEvery is how many streamed matrix rows are written between
// flushes to the client.
const matrixFlushEvery = 64

// WriteMatrix streams a distance matrix as JSON — {"n":N,"rows":[...]}
// — row by row, flushing every matrixFlushEvery rows when the writer
// supports it (http.Flusher). Large matrices reach the client
// incrementally instead of being buffered whole.
func WriteMatrix(w io.Writer, m dpe.Matrix) error {
	flusher, _ := w.(http.Flusher)
	if _, err := fmt.Fprintf(w, `{"n":%d,"rows":[`, len(m)); err != nil {
		return err
	}
	for i, row := range m {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		b, err := json.Marshal(row)
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		if flusher != nil && (i+1)%matrixFlushEvery == 0 {
			flusher.Flush()
		}
	}
	_, err := io.WriteString(w, "]}")
	return err
}

// WriteAppendedRows streams a logs:append response as JSON —
// {"log":ID,"n":N,"offset":O,"rows":[...]} — row by row, flushing like
// WriteMatrix. Only the k = N−O new full-width rows (rows O..N-1 of the
// extended matrix) travel, never the unchanged old block: for a large
// session log the append payload is O(n·k), not O(n²). ID is the
// combined log's content-addressed id, for follow-up calls on the
// grown log.
func WriteAppendedRows(w io.Writer, logID string, total, offset int, rows [][]float64) error {
	flusher, _ := w.(http.Flusher)
	if _, err := fmt.Fprintf(w, `{"log":%q,"n":%d,"offset":%d,"rows":[`, logID, total, offset); err != nil {
		return err
	}
	for i, row := range rows {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		b, err := json.Marshal(row)
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		if flusher != nil && (i+1)%matrixFlushEvery == 0 {
			flusher.Flush()
		}
	}
	_, err := io.WriteString(w, "]}")
	return err
}

// MatrixContentType is the media type of the binary matrix frame. The
// matrix and logs:append routes answer with it when the request's
// Accept header names it (service.Client always does) and with the
// JSON streams above otherwise, so curl keeps reading JSON.
const MatrixContentType = "application/x-dpe-matrix"

// The binary matrix frame, all integers little-endian:
//
//	magic "DPEM" | version u8 | n u32 | offset u32 | log id length u8 | log id
//	for each row i in [offset, n): columns [0, i) as float64 bits
//	CRC-32 (IEEE) of everything above, u32
//
// The diagonal is zero and the rest follows by symmetry, so a matrix
// (offset 0) sends its strict lower triangle, n(n−1)/2 values, and an
// append sends the new rows' cross block plus the lower half of the
// new block. float64 bits travel verbatim, so Definition 1 survives
// the hop bit for bit.
const (
	matrixMagic      = "DPEM"
	matrixVersion    = 1
	matrixHeaderSize = len(matrixMagic) + 1 + 4 + 4 + 1
	matrixBufSize    = 32 << 10
)

// MatrixFrame is one decoded binary matrix frame: rows Offset..N-1 of
// an N×N distance matrix, each full width, over one flat backing array.
// Log is empty for a matrix response and the combined log's id for an
// append response.
type MatrixFrame struct {
	Log    string
	N      int
	Offset int
	Rows   [][]float64
}

// WriteMatrixBinary streams rows offset..offset+len(rows)-1 of a
// distance matrix as one binary frame (see MatrixContentType). Each row
// must be full width; only its columns below the diagonal are sent.
// Rows go out through one buffered writer and one reused row buffer,
// flushing every matrixFlushEvery rows when w supports it, so the
// encoder allocates O(n) whatever the matrix size.
func WriteMatrixBinary(w io.Writer, logID string, offset int, rows [][]float64) error {
	n := offset + len(rows)
	if offset < 0 || n > math.MaxUint32 {
		return fmt.Errorf("service: matrix frame rows %d..%d out of range", offset, n)
	}
	if len(logID) > math.MaxUint8 {
		return fmt.Errorf("service: matrix frame log id of %d bytes", len(logID))
	}
	flusher, _ := w.(http.Flusher)
	bw := bufio.NewWriterSize(w, matrixBufSize)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)

	hdr := make([]byte, matrixHeaderSize, matrixHeaderSize+len(logID))
	copy(hdr, matrixMagic)
	hdr[4] = matrixVersion
	binary.LittleEndian.PutUint32(hdr[5:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[9:], uint32(offset))
	hdr[13] = byte(len(logID))
	if _, err := out.Write(append(hdr, logID...)); err != nil {
		return err
	}
	buf := make([]byte, 8*n)
	for r, row := range rows {
		if len(row) != n {
			return fmt.Errorf("service: matrix row %d has %d entries, want %d", offset+r, len(row), n)
		}
		b := buf[:0]
		for _, v := range row[:offset+r] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		if _, err := out.Write(b); err != nil {
			return err
		}
		if flusher != nil && (r+1)%matrixFlushEvery == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
			flusher.Flush()
		}
	}
	if _, err := bw.Write(binary.LittleEndian.AppendUint32(buf[:0], crc.Sum32())); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadMatrixBinary decodes one WriteMatrixBinary frame. It rejects a
// bad magic, an unknown version, offset > n, a truncated or overlong
// body, and a CRC mismatch; the diagonal is filled with zeros and the
// upper triangle by symmetry. Memory grows only with the bytes that
// actually arrive — a header claiming a huge n over a short body is an
// error after a small allocation, not an out-of-memory crash.
func ReadMatrixBinary(r io.Reader) (*MatrixFrame, error) {
	hdr := make([]byte, matrixHeaderSize, matrixHeaderSize+math.MaxUint8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("service: matrix frame header: %w", noEOF(err))
	}
	if string(hdr[:4]) != matrixMagic {
		return nil, fmt.Errorf("service: not a matrix frame (magic %q)", hdr[:4])
	}
	if hdr[4] != matrixVersion {
		return nil, fmt.Errorf("service: matrix frame version %d, this binary reads %d", hdr[4], matrixVersion)
	}
	n := uint64(binary.LittleEndian.Uint32(hdr[5:]))
	offset := uint64(binary.LittleEndian.Uint32(hdr[9:]))
	if offset > n {
		return nil, fmt.Errorf("service: matrix frame offset %d past n=%d", offset, n)
	}
	hdr = hdr[:matrixHeaderSize+int(hdr[13])]
	if _, err := io.ReadFull(r, hdr[matrixHeaderSize:]); err != nil {
		return nil, fmt.Errorf("service: matrix frame log id: %w", noEOF(err))
	}
	// Rows offset..n-1 carry offset+…+(n−1) values. n < 2³², so the
	// product fits in 64 bits; the bound keeps every size below an int.
	values := (n - offset) * (n + offset - 1) / 2
	if values > math.MaxInt64/32 {
		return nil, fmt.Errorf("service: matrix frame of n=%d is too large", n)
	}
	chunks, err := readChunks(r, int64(values)*8)
	if err != nil {
		return nil, fmt.Errorf("service: matrix frame body: %w", err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, fmt.Errorf("service: matrix frame trailer: %w", noEOF(err))
	}
	if m, _ := io.ReadFull(r, make([]byte, 1)); m > 0 {
		return nil, fmt.Errorf("service: trailing bytes after the matrix frame")
	}
	crc := crc32.ChecksumIEEE(hdr)
	for _, c := range chunks {
		crc = crc32.Update(crc, crc32.IEEETable, c)
	}
	if want := binary.LittleEndian.Uint32(trailer[:]); crc != want {
		return nil, fmt.Errorf("service: matrix frame CRC %08x, trailer says %08x", crc, want)
	}

	width, k, off := int(n), int(n-offset), int(offset)
	backing := make([]float64, k*width)
	rows := make([][]float64, k)
	for r := range rows {
		rows[r] = backing[r*width : (r+1)*width : (r+1)*width]
	}
	var cur []byte
	for r, row := range rows {
		for j := range row[:off+r] {
			if len(cur) == 0 {
				cur, chunks = chunks[0], chunks[1:]
			}
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(cur))
			cur = cur[8:]
		}
	}
	// Mirror the new block's lower half into its upper half, tile by
	// tile so the strided writes stay in cache.
	const tile = 64
	for r0 := 0; r0 < k; r0 += tile {
		for c0 := 0; c0 <= r0; c0 += tile {
			for r := r0; r < min(r0+tile, k); r++ {
				for c := c0; c < min(c0+tile, r); c++ {
					rows[c][off+r] = rows[r][off+c]
				}
			}
		}
	}
	return &MatrixFrame{Log: string(hdr[matrixHeaderSize:]), N: width, Offset: off, Rows: rows}, nil
}

// readChunks reads exactly size bytes (a multiple of 8) into chunks
// that double in size as bytes arrive, instead of one buffer sized by
// the header's claim: a stream that ends early costs at most about
// twice what it delivered, and no byte is copied twice.
func readChunks(r io.Reader, size int64) ([][]byte, error) {
	var chunks [][]byte
	for next := int64(matrixBufSize); size > 0; next *= 2 {
		c := make([]byte, min(next, size))
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, noEOF(err)
		}
		chunks = append(chunks, c)
		size -= int64(len(c))
	}
	return chunks, nil
}

// noEOF reports a stream that ended inside a fixed-size field as a
// truncation, never as a clean end of input.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
