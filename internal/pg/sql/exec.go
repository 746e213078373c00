package sql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vecstudy/internal/maintenance"
	"vecstudy/internal/minheap"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/vec"
)

// BufferPartitionsSetting is the session knob that repartitions the
// shared buffer pool at runtime (`SET buffer_partitions = 16`), the
// analogue of PostgreSQL's NUM_BUFFER_PARTITIONS compile-time constant.
// 1 restores the paper's single-lock pool.
const BufferPartitionsSetting = "buffer_partitions"

// VacuumThresholdSetting is the auto-vacuum trigger: after a DELETE or
// UPDATE, a table whose dead-tuple fraction meets or exceeds this value
// is vacuumed in place (heap compaction + index repair + sample
// rebuild). 0 disables auto-vacuum; VACUUM remains available manually.
const VacuumThresholdSetting = "vacuum_threshold"

// DistanceKernelSetting selects the distance kernel search paths score
// candidates with: ref (bit-exact scalar baseline), unrolled (the
// default; SSE2 assembly on amd64, Go elsewhere), or avx2 (assembly, amd64
// hosts with the ISA; silently falls back to the default elsewhere).
// Build, insert, and delete arithmetic is pinned to ref regardless —
// bucket assignment and graph wiring must not depend on a session knob.
const DistanceKernelSetting = "distance_kernel"

// SQ8RerankSetting is the ivfsq8 re-rank multiplier β: the quantized
// scan collects k·β candidates by asymmetric code distance, then the
// top k are re-ranked against the full-precision heap tuples. 1 skips
// no candidates but re-ranks exactly k.
const SQ8RerankSetting = "sq8_rerank"

// Setting describes one recognized session knob.
type Setting struct {
	Name    string
	Default string // effective value when the session has not SET it
	Desc    string
}

// knownSettings is the closed list of knobs SET and SHOW accept, in
// SHOW ALL order. The scan-time defaults mirror the access methods'
// own fallbacks (pase.OptInt defaults).
var knownSettings = []Setting{
	{BatchMaxSetting, "32", "batched execution: max queries coalesced into one multi-query probe"},
	{BatchWindowSetting, "0", "batched execution: coalescing window in microseconds (0 = off)"},
	{BufferPartitionsSetting, "", "buffer-mapping partitions of the shared pool (1 = paper's single lock)"},
	{DistanceKernelSetting, vec.DefaultKernelName, "distance kernel for search-path scoring: ref, unrolled, or avx2"},
	{"efs", "200", "hnsw: search queue length"},
	{FilterOverfetchSetting, "4", "filtered kNN: post-filter over-fetch multiplier (k' = k*alpha)"},
	{FilterStrategySetting, "auto", "filtered kNN strategy: auto, pre, post, or intraversal"},
	{"heap", "n", "ivfflat, ivfpq: top-k heap policy, n (PASE size-n, RC#6) or k (size-k)"},
	{"nprobe", "20", "ivf: clusters probed per query"},
	{SQ8RerankSetting, "4", "ivfsq8: re-rank multiplier beta (k*beta quantized candidates re-ranked at full precision)"},
	{"threads", "1", "intra-query scan parallelism"},
	{VacuumThresholdSetting, "0", "auto-vacuum when a table's dead-tuple fraction reaches this (0 = off)"},
}

// KnownSettings returns the recognized session knobs (for SHOW ALL and
// external tooling).
func KnownSettings() []Setting {
	out := make([]Setting, len(knownSettings))
	copy(out, knownSettings)
	return out
}

func lookupSetting(name string) (Setting, bool) {
	for _, s := range knownSettings {
		if s.Name == name {
			return s, true
		}
	}
	return Setting{}, false
}

// Session executes statements against a database and carries session
// settings (scan parameters like nprobe, efs, threads — PASE exposes the
// same knobs through GUCs).
type Session struct {
	db       *db.DB
	settings map[string]string

	lastFilter execTrace // what the last filtered vector search did
}

// NewSession opens a session on d.
func NewSession(d *db.DB) *Session {
	return &Session{db: d, settings: map[string]string{}}
}

// Set overrides one session setting programmatically. It validates the
// knob name against the same known-settings list the SET statement uses
// and returns an error for unknown knobs.
func (s *Session) Set(name, value string) error { return s.applySet(name, value) }

// applySet is the single SET path shared by Set and the SET statement.
func (s *Session) applySet(name, value string) error {
	if err := ValidateSetting(name, value); err != nil {
		return err
	}
	if name == BufferPartitionsSetting {
		n, _ := strconv.Atoi(value)
		if err := s.db.SetBufferPartitions(n); err != nil {
			return err
		}
		// Record the clamped, effective value, not the request.
		s.settings[name] = strconv.Itoa(s.db.Pool().Partitions())
		return nil
	}
	s.settings[name] = value
	return nil
}

// ValidateSetting checks one knob assignment without applying it. The
// cluster router validates at record time through this — its SETs are
// replayed onto shard sessions later, where a bad value would otherwise
// surface as a confusing error on an unrelated query.
func ValidateSetting(name, value string) error {
	if _, ok := lookupSetting(name); !ok {
		return fmt.Errorf("sql: unrecognized setting %q (SHOW ALL lists the known settings)", name)
	}
	switch name {
	case BufferPartitionsSetting:
		if _, err := strconv.Atoi(value); err != nil {
			return fmt.Errorf("sql: SET %s expects an integer: %w", BufferPartitionsSetting, err)
		}
	case FilterStrategySetting:
		switch value {
		case "auto", "pre", "post", "intraversal":
		default:
			return fmt.Errorf("sql: SET %s expects auto, pre, post, or intraversal", FilterStrategySetting)
		}
	case FilterOverfetchSetting:
		if n, err := strconv.Atoi(value); err != nil || n < 1 {
			return fmt.Errorf("sql: SET %s expects a positive integer", FilterOverfetchSetting)
		}
	case BatchWindowSetting:
		if n, err := strconv.Atoi(value); err != nil || n < 0 || n > BatchWindowMaxMicros {
			return fmt.Errorf("sql: SET %s expects an integer between 0 and %d (microseconds)", BatchWindowSetting, BatchWindowMaxMicros)
		}
	case BatchMaxSetting:
		if n, err := strconv.Atoi(value); err != nil || n < 1 || n > BatchMaxLimit {
			return fmt.Errorf("sql: SET %s expects an integer between 1 and %d", BatchMaxSetting, BatchMaxLimit)
		}
	case VacuumThresholdSetting:
		if f, err := strconv.ParseFloat(value, 64); err != nil || f < 0 || f > 1 {
			return fmt.Errorf("sql: SET %s expects a fraction between 0 and 1", VacuumThresholdSetting)
		}
	case DistanceKernelSetting:
		// Any KNOWN kernel name is accepted regardless of what this host
		// registered: a cluster router validates here and replays the SET
		// onto shards whose hardware may differ, so avx2 must validate on
		// a machine without the ISA (vec.ForName falls back at scan time).
		ok := false
		for _, name := range vec.KnownKernelNames() {
			if value == name {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("sql: SET %s expects one of %s", DistanceKernelSetting, strings.Join(vec.KnownKernelNames(), ", "))
		}
	case SQ8RerankSetting:
		if n, err := strconv.Atoi(value); err != nil || n < 1 || n > 64 {
			return fmt.Errorf("sql: SET %s expects an integer between 1 and 64", SQ8RerankSetting)
		}
	}
	return nil
}

// effective resolves a known setting to its current value: the session
// override if SET, otherwise the default (the pool's live partition
// count for buffer_partitions).
func (s *Session) effective(st Setting) string {
	if st.Name == BufferPartitionsSetting {
		return strconv.Itoa(s.db.Pool().Partitions())
	}
	if v, ok := s.settings[st.Name]; ok {
		return v
	}
	return st.Default
}

// Result is the outcome of one statement.
type Result struct {
	Cols []string
	Rows [][]any
	Msg  string // DDL/utility acknowledgment
}

// Execute parses and runs one statement.
func (s *Session) Execute(text string) (*Result, error) {
	stmt, err := Parse(text)
	if err != nil {
		return nil, err
	}
	return s.run(stmt)
}

func (s *Session) run(stmt Stmt) (*Result, error) {
	switch st := stmt.(type) {
	case *CreateTableStmt:
		if _, err := s.db.CreateTable(st.Name, st.Schema); err != nil {
			return nil, err
		}
		return &Result{Msg: "CREATE TABLE"}, nil
	case *InsertStmt:
		return s.runInsert(st)
	case *DeleteStmt:
		return s.runDelete(st)
	case *UpdateStmt:
		return s.runUpdate(st)
	case *VacuumStmt:
		return s.runVacuum(st)
	case *CreateIndexStmt:
		s.db.StmtGate().RLock()
		_, err := s.db.CreateIndex(st.Name, st.Table, st.Column, st.AM, st.Options)
		s.db.StmtGate().RUnlock()
		if err != nil {
			return nil, err
		}
		return &Result{Msg: "CREATE INDEX"}, nil
	case *SetStmt:
		if err := s.applySet(st.Name, st.Value); err != nil {
			return nil, err
		}
		return &Result{Msg: "SET"}, nil
	case *ShowStmt:
		if st.Name == "all" {
			res := &Result{Cols: []string{"name", "setting", "description"}}
			for _, known := range knownSettings {
				res.Rows = append(res.Rows, []any{known.Name, s.effective(known), known.Desc})
			}
			return res, nil
		}
		known, ok := lookupSetting(st.Name)
		if !ok {
			return nil, fmt.Errorf("sql: unrecognized setting %q (SHOW ALL lists the known settings)", st.Name)
		}
		return &Result{Cols: []string{st.Name}, Rows: [][]any{{s.effective(known)}}}, nil
	case *SelectStmt:
		return s.runSelect(st)
	case *ExplainStmt:
		return s.runExplain(st)
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
}

func (s *Session) runInsert(st *InsertStmt) (*Result, error) {
	tbl, err := s.db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	s.db.StmtGate().RLock()
	defer s.db.StmtGate().RUnlock()
	schema := tbl.Schema()
	for _, row := range st.Rows {
		if len(row) != len(schema.Cols) {
			return nil, fmt.Errorf("sql: INSERT has %d values, table %q has %d columns", len(row), st.Table, len(schema.Cols))
		}
		values := make([]any, len(row))
		for i, lit := range row {
			v, err := litToValue(lit, schema.Cols[i])
			if err != nil {
				return nil, err
			}
			values[i] = v
		}
		if _, err := s.db.Insert(st.Table, values); err != nil {
			return nil, err
		}
	}
	return &Result{Msg: fmt.Sprintf("INSERT 0 %d", len(st.Rows))}, nil
}

// matchingTIDs collects the TIDs of live rows satisfying the predicate,
// decoding values only when a predicate needs them. Collect-then-mutate
// keeps DELETE and UPDATE out of their own way: an UPDATE's freshly
// inserted rows can never be re-visited by the same statement (the
// Halloween problem).
func matchingTIDs(tbl *heap.Table, pred *compiledPred) ([]heap.TID, error) {
	schema := tbl.Schema()
	var tids []heap.TID
	err := tbl.Scan(func(tid heap.TID, tup []byte) (bool, error) {
		if pred != nil {
			vals, err := schema.Decode(tup)
			if err != nil {
				return false, err
			}
			if !pred.eval(vals) {
				return true, nil
			}
		}
		tids = append(tids, tid)
		return true, nil
	})
	return tids, err
}

// vacuumThreshold resolves the session's auto-vacuum trigger fraction.
func (s *Session) vacuumThreshold() float64 {
	v, ok := s.settings[VacuumThresholdSetting]
	if !ok {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0
	}
	return f
}

// maybeAutoVacuum vacuums the table if its dead fraction has reached the
// session's vacuum_threshold. Callers hold the statement gate
// exclusively already (DELETE/UPDATE run under it).
func (s *Session) maybeAutoVacuum(tbl *heap.Table, table string) error {
	th := s.vacuumThreshold()
	if th <= 0 || tbl.DeadFraction() < th {
		return nil
	}
	_, err := maintenance.VacuumTable(s.db, table)
	return err
}

func (s *Session) runDelete(st *DeleteStmt) (*Result, error) {
	tbl, err := s.db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	pred, err := compilePred(st.Where, tbl.Schema())
	if err != nil {
		return nil, err
	}
	s.db.StmtGate().Lock()
	defer s.db.StmtGate().Unlock()
	tids, err := matchingTIDs(tbl, pred)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, tid := range tids {
		ok, err := s.db.Delete(st.Table, tid)
		if err != nil {
			return nil, err
		}
		if ok {
			n++
		}
	}
	if err := s.maybeAutoVacuum(tbl, st.Table); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("DELETE %d", n)}, nil
}

func (s *Session) runUpdate(st *UpdateStmt) (*Result, error) {
	tbl, err := s.db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	pred, err := compilePred(st.Where, schema)
	if err != nil {
		return nil, err
	}
	type assign struct {
		col int
		val any
	}
	assigns := make([]assign, 0, len(st.Set))
	for _, a := range st.Set {
		col := schema.ColIndex(a.Col)
		if col < 0 {
			return nil, fmt.Errorf("sql: no column %q", a.Col)
		}
		v, err := litToValue(a.Val, schema.Cols[col])
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, assign{col: col, val: v})
	}
	s.db.StmtGate().Lock()
	defer s.db.StmtGate().Unlock()
	tids, err := matchingTIDs(tbl, pred)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, tid := range tids {
		var values []any
		ok, err := tbl.GetVisible(tid, func(tup []byte) error {
			var err error
			values, err = schema.Decode(tup)
			return err
		})
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for _, a := range assigns {
			values[a.col] = a.val
		}
		if _, ok, err := s.db.Update(st.Table, tid, values); err != nil {
			return nil, err
		} else if ok {
			n++
		}
	}
	if err := s.maybeAutoVacuum(tbl, st.Table); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("UPDATE %d", n)}, nil
}

func (s *Session) runVacuum(st *VacuumStmt) (*Result, error) {
	s.db.StmtGate().Lock()
	defer s.db.StmtGate().Unlock()
	if st.Table != "" {
		if _, err := maintenance.VacuumTable(s.db, st.Table); err != nil {
			return nil, err
		}
		return &Result{Msg: "VACUUM"}, nil
	}
	if _, err := maintenance.VacuumAll(s.db); err != nil {
		return nil, err
	}
	return &Result{Msg: "VACUUM"}, nil
}

// litToValue coerces a parsed literal to the column's Go type.
func litToValue(lit Literal, col heap.Column) (any, error) {
	switch col.Type {
	case heap.Int4:
		if !lit.IsNum {
			return nil, fmt.Errorf("sql: column %q expects an integer", col.Name)
		}
		return int32(lit.Num), nil
	case heap.Int8:
		if !lit.IsNum {
			return nil, fmt.Errorf("sql: column %q expects a bigint", col.Name)
		}
		return int64(lit.Num), nil
	case heap.Float4:
		if !lit.IsNum {
			return nil, fmt.Errorf("sql: column %q expects a real", col.Name)
		}
		return float32(lit.Num), nil
	case heap.Text:
		if !lit.IsStr {
			return nil, fmt.Errorf("sql: column %q expects a string", col.Name)
		}
		return lit.Str, nil
	case heap.Float4Array:
		if !lit.IsVec {
			return nil, fmt.Errorf("sql: column %q expects a vector literal like '{0.1,0.2}'", col.Name)
		}
		return lit.Vec, nil
	}
	return nil, fmt.Errorf("sql: unsupported column type %v", col.Type)
}

// DistanceColumn is the pseudo-column that exposes the ORDER BY distance
// in the target list of a vector search.
const DistanceColumn = "distance"

func (s *Session) runSelect(st *SelectStmt) (*Result, error) {
	tbl, err := s.db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	outCols, err := resolveColumns(st, schema)
	if err != nil {
		return nil, err
	}
	// The predicate is validated against the schema before dispatch, so
	// an unknown WHERE column errors identically on the scan and vector
	// paths (the silent-drop bug ignored it entirely on the latter).
	pred, err := compilePred(st.Where, schema)
	if err != nil {
		return nil, err
	}

	if st.OrderCol != "" {
		return s.runVectorSearch(st, tbl, outCols, pred)
	}

	// Plain (optionally filtered) sequential scan.
	s.db.StmtGate().RLock()
	defer s.db.StmtGate().RUnlock()
	res := &Result{Cols: colNames(outCols, schema, st)}
	count := 0
	err = tbl.Scan(func(tid heap.TID, tup []byte) (bool, error) {
		vals, err := schema.Decode(tup)
		if err != nil {
			return false, err
		}
		if pred != nil && !pred.eval(vals) {
			return true, nil
		}
		count++
		if !st.CountStar {
			res.Rows = append(res.Rows, project(vals, outCols, 0))
		}
		if st.HasLimit && !st.CountStar && len(res.Rows) >= st.Limit {
			return false, nil
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if st.CountStar {
		res.Rows = [][]any{{int64(count)}}
	}
	return res, nil
}

// runVectorSearch executes [WHERE ...] ORDER BY vec <-> '...' [LIMIT k].
// Unfiltered queries prefer an index scan and fall back to an exact
// scan-and-sort; filtered queries go through the planner seam, which
// picks pre-filter, post-filter, or in-traversal by estimated
// selectivity (see planner.go). Planning and execution are split as
// planVector + Run so the query coalescer can hold a planned query for
// a batch window (see batch.go).
func (s *Session) runVectorSearch(st *SelectStmt, tbl *heap.Table, outCols []int, pred *compiledPred) (*Result, error) {
	q, err := s.planVector(st, tbl, outCols, pred)
	if err != nil {
		return nil, err
	}
	return q.Run()
}

// execTrace records what the last filtered search actually did, for
// in-package tests and debugging (the planner's choice is visible to
// clients through EXPLAIN).
type execTrace struct {
	fetched  int // index hits pulled across every post-filter refill round
	refills  int // extra search rounds beyond the first
	strategy FilterStrategy
}

// exactSearch is the brute-force path: one heap pass, predicate pushed
// below the distance computation, survivors ranked in a bounded top-k
// heap. It serves both the unfiltered no-index fallback (pred == nil)
// and the pre-filter strategy.
func (s *Session) exactSearch(st *SelectStmt, tbl *heap.Table, vcol, k int, pred *compiledPred, outCols []int, res *Result) (*Result, error) {
	if pred != nil {
		s.lastFilter.strategy = FilterPre
	}
	kern, err := vec.ForName(s.settings[DistanceKernelSetting])
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	top := minheap.NewTopK(k)
	var tids []heap.TID
	err = tbl.Scan(func(tid heap.TID, tup []byte) (bool, error) {
		if pred != nil {
			vals, err := schema.Decode(tup)
			if err != nil {
				return false, err
			}
			if !pred.eval(vals) {
				return true, nil
			}
		}
		v, err := schema.VectorAt(tup, vcol)
		if err != nil {
			return false, err
		}
		if len(v) != len(st.QueryVec) {
			return false, fmt.Errorf("sql: query vector has %d dims, column %q has %d", len(st.QueryVec), st.OrderCol, len(v))
		}
		top.Push(int64(len(tids)), kern.L2Sqr(st.QueryVec, v))
		tids = append(tids, tid)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	for _, it := range top.Results() {
		row, ok, err := s.fetchRow(tbl, tids[it.ID], outCols, it.Dist)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// postFilterSearch over-fetches k' = k·α from the index, keeps the hits
// satisfying pred, and doubles k' until k survive or k' has reached the
// table size (the index is exhausted). Termination is unconditional:
// k' grows geometrically to the n cap, so a predicate matching zero
// rows performs O(log n) rounds and returns empty, with total fetched
// hits bounded by the k'-series sum (< 4n).
func (s *Session) postFilterSearch(tbl *heap.Table, idx am.Index, query []float32, k int, cp *compiledPred) ([]am.Result, error) {
	s.lastFilter.strategy = FilterPost
	alpha := 4
	if v, ok := s.settings[FilterOverfetchSetting]; ok {
		if n, err := strconv.Atoi(v); err == nil && n >= 1 {
			alpha = n
		}
	}
	n := int(tbl.NTuples())
	pred := predicateFor(tbl, cp)
	kPrime := k * alpha
	if kPrime > n || kPrime < k { // cap at table size; guard overflow
		kPrime = n
	}
	for {
		hits, err := idx.Search(query, kPrime, s.settings)
		if err != nil {
			return nil, err
		}
		s.lastFilter.fetched += len(hits)
		survivors := make([]am.Result, 0, k)
		for _, h := range hits {
			ok, err := pred(h.TID)
			if err != nil {
				return nil, err
			}
			if ok {
				survivors = append(survivors, h)
				if len(survivors) == k {
					break
				}
			}
		}
		if len(survivors) >= k || kPrime >= n || len(hits) < kPrime {
			return survivors, nil
		}
		s.lastFilter.refills++
		kPrime *= 2
		if kPrime > n || kPrime < 0 {
			kPrime = n
		}
	}
}

// fetchRow resolves a TID to projected output values. A TID whose heap
// tuple has died since the index entry was written reports (nil, false,
// nil) and the caller drops the row — the executor's visibility
// re-check, the last line of defense against a stale index TID.
func (s *Session) fetchRow(tbl *heap.Table, tid heap.TID, outCols []int, dist float32) ([]any, bool, error) {
	var row []any
	ok, err := tbl.GetVisible(tid, func(tup []byte) error {
		vals, err := tbl.Schema().Decode(tup)
		if err != nil {
			return err
		}
		row = project(vals, outCols, dist)
		return nil
	})
	return row, ok, err
}

// resolveColumns maps the target list to column ordinals; -1 encodes the
// distance pseudo-column.
func resolveColumns(st *SelectStmt, schema heap.Schema) ([]int, error) {
	if st.CountStar {
		return nil, nil
	}
	var out []int
	for _, name := range st.Columns {
		if name == "*" {
			for i := range schema.Cols {
				out = append(out, i)
			}
			continue
		}
		if name == DistanceColumn && st.OrderCol != "" {
			out = append(out, -1)
			continue
		}
		i := schema.ColIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("sql: no column %q", name)
		}
		out = append(out, i)
	}
	return out, nil
}

func colNames(outCols []int, schema heap.Schema, st *SelectStmt) []string {
	if st.CountStar {
		return []string{"count"}
	}
	names := make([]string, len(outCols))
	for i, c := range outCols {
		if c == -1 {
			names[i] = DistanceColumn
		} else {
			names[i] = schema.Cols[c].Name
		}
	}
	return names
}

func project(vals []any, outCols []int, dist float32) []any {
	row := make([]any, len(outCols))
	for i, c := range outCols {
		if c == -1 {
			row[i] = dist
		} else {
			row[i] = vals[c]
		}
	}
	return row
}

// runExplain renders the plan the inner statement would use, including
// the predicate and the filter strategy the planner picks for filtered
// vector searches.
func (s *Session) runExplain(st *ExplainStmt) (*Result, error) {
	sel, ok := st.Inner.(*SelectStmt)
	if !ok {
		return &Result{Cols: []string{"QUERY PLAN"}, Rows: [][]any{{"Utility Statement"}}}, nil
	}

	// Plan the predicate when the table exists; EXPLAIN of a missing
	// table still renders a shape-only plan (the statement would fail at
	// execution, but EXPLAIN has no DDL side effects to protect).
	var pred *compiledPred
	var vq *VectorQuery
	plan := filterPlan{strategy: FilterNone}
	if tbl, err := s.db.Table(sel.Table); err == nil {
		pred, err = compilePred(sel.Where, tbl.Schema())
		if err != nil {
			return nil, err
		}
		if sel.OrderCol != "" {
			// Prefer the full plan (it also answers batchability); a
			// non-vector ORDER BY column keeps the shape-only rendering.
			if q, vErr := s.planVector(sel, tbl, nil, pred); vErr == nil {
				vq, plan = q, q.plan
			} else if plan, err = s.planFilter(tbl, s.db.IndexOn(sel.Table, sel.OrderCol), pred); err != nil {
				return nil, err
			}
		}
	}

	var lines []string
	if sel.OrderCol != "" {
		filterLine := func(indent string) {
			if pred == nil {
				return
			}
			lines = append(lines, fmt.Sprintf("%sFilter: %s (%s, est sel=%.2f)", indent, pred, plan.strategy, plan.selectivity))
		}
		if idx := s.db.IndexOn(sel.Table, sel.OrderCol); idx != nil && plan.strategy != FilterPre {
			params := make([]string, 0, len(s.settings))
			for k, v := range s.settings {
				params = append(params, k+"="+v)
			}
			sort.Strings(params)
			lines = append(lines,
				fmt.Sprintf("Limit (k=%d)", sel.Limit),
				fmt.Sprintf("  -> Index Scan using %s on %s (%s)", idx.AM(), sel.Table, strings.Join(params, " ")),
			)
			filterLine("       ")
		} else {
			lines = append(lines,
				fmt.Sprintf("Limit (k=%d)", sel.Limit),
				"  -> Sort by vector distance",
				fmt.Sprintf("    -> Seq Scan on %s", sel.Table),
			)
			filterLine("       ")
		}
		// Report the kernel that will actually score distances: ForName
		// falls back to the default when the requested kernel is known
		// but not registered on this host (avx2 without AVX2).
		if kern, err := vec.ForName(s.settings[DistanceKernelSetting]); err == nil {
			lines = append(lines, fmt.Sprintf("Kernel: %s", kern.Name()))
		}
		if vq != nil {
			if ok, reason := vq.Batchable(); ok {
				lines = append(lines, fmt.Sprintf("Batchable: yes (group %s)", vq.GroupKey()))
			} else {
				lines = append(lines, fmt.Sprintf("Batchable: no (%s)", reason))
			}
		}
	} else {
		lines = append(lines, fmt.Sprintf("Seq Scan on %s", sel.Table))
		if len(sel.Where) > 0 {
			if pred == nil {
				// Missing table: render from the AST instead.
				pred = &compiledPred{src: sel.Where}
			}
			lines = append(lines, fmt.Sprintf("  Filter: %s", pred))
		}
	}
	res := &Result{Cols: []string{"QUERY PLAN"}}
	for _, l := range lines {
		res.Rows = append(res.Rows, []any{l})
	}
	return res, nil
}
