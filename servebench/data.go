package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"vecstudy/internal/dataset"
)

const (
	table     = "items"
	indexName = "items_vec"
	k         = 10
	// insertBatch is the row count of one multi-row INSERT during setup.
	insertBatch = 200
	// vacuumEvery makes every vacuumEvery-th write statement a VACUUM.
	vacuumEvery = 100
)

// inputs is everything a run sends, all derived from the seed. The
// program under test only ever receives the SQL rendered from it.
type inputs struct {
	ds      *dataset.Dataset
	queries []string // one kNN SELECT per query vector
	inserts []string // setup only: insertBatches(ds), dropped after it
}

func makeInputs(seed int64, scale float64) (*inputs, error) {
	p, err := dataset.ProfileByName("sift1m")
	if err != nil {
		return nil, err
	}
	ds := dataset.Generate(p, dataset.GenOptions{Scale: scale, Seed: seed})
	in := &inputs{ds: ds}
	for q := 0; q < ds.NQ(); q++ {
		in.queries = append(in.queries, searchSQL(ds.Queries.Row(q)))
	}
	return in, nil
}

// insertBatches renders the setup's multi-row INSERT batches covering
// ds.Base.
func insertBatches(ds *dataset.Dataset) []string {
	var out []string
	var b strings.Builder
	for lo := 0; lo < ds.N(); lo += insertBatch {
		hi := min(lo+insertBatch, ds.N())
		b.Reset()
		b.WriteString("INSERT INTO " + table + " VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, '%s')", i, vecLit(ds.Base.Row(i)))
		}
		out = append(out, b.String())
	}
	return out
}

func createTableSQL() string { return "CREATE TABLE " + table + " (id int, vec float[])" }

func createIndexSQL(am string, clusters int, seed int64) string {
	return fmt.Sprintf("CREATE INDEX %s ON %s USING %s (vec) WITH (clusters = %d, seed = %d)",
		indexName, table, am, clusters, seed)
}

func searchSQL(q []float32) string {
	return fmt.Sprintf("SELECT id FROM %s ORDER BY vec <-> '%s' LIMIT %d", table, vecLit(q), k)
}

// vecLit renders a vector literal whose float32 values parse back
// bit-exactly, so the exact ground truth sees the rows the engine holds.
func vecLit(v []float32) string {
	var b strings.Builder
	b.WriteByte('{')
	for j, x := range v {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(float64(x), 'g', -1, 32))
	}
	b.WriteByte('}')
	return b.String()
}

type opKind int

const (
	opInsert opKind = iota
	opDelete
	opUpdate
	opVacuum
)

func (o opKind) String() string {
	return [...]string{"insert", "delete", "update", "vacuum"}[o]
}

// writeOp is one statement of the churn write stream.
type writeOp struct {
	kind opKind
	id   int64
	vec  []float32 // the row's vector after an insert or update
	sql  string
}

// writeStream generates n write statements against a table whose live
// ids are initially 0..ds.N()-1: of every vacuumEvery statements one is
// a VACUUM, and the rest are 70% INSERT of a fresh id, 20% point DELETE
// and 10% point UPDATE of a live id. New vectors are base rows plus
// noise, so they land inside the data's clusters. firstID is the first
// fresh id handed out.
func writeStream(ds *dataset.Dataset, seed int64, n int, firstID int64) []writeOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	live := make([]int64, ds.N())
	pos := make(map[int64]int, ds.N())
	for i := range live {
		live[i] = int64(i)
		pos[int64(i)] = i
	}
	remove := func(at int) int64 {
		id := live[at]
		last := live[len(live)-1]
		live[at] = last
		pos[last] = at
		live = live[:len(live)-1]
		delete(pos, id)
		return id
	}
	newVec := func() []float32 {
		base := ds.Base.Row(rng.Intn(ds.N()))
		v := make([]float32, len(base))
		for j := range v {
			v[j] = base[j] + float32(rng.NormFloat64()*4)
		}
		return v
	}
	next := firstID
	ops := make([]writeOp, 0, n)
	for i := 0; i < n; i++ {
		var op writeOp
		r := rng.Float64()
		switch {
		case (i+1)%vacuumEvery == 0:
			op = writeOp{kind: opVacuum, sql: "VACUUM " + table}
		case r < 0.7 || len(live) == 0:
			op = writeOp{kind: opInsert, id: next, vec: newVec()}
			op.sql = fmt.Sprintf("INSERT INTO %s VALUES (%d, '%s')", table, op.id, vecLit(op.vec))
			pos[next] = len(live)
			live = append(live, next)
			next++
		case r < 0.9:
			op = writeOp{kind: opDelete, id: remove(rng.Intn(len(live)))}
			op.sql = fmt.Sprintf("DELETE FROM %s WHERE id = %d", table, op.id)
		default:
			op = writeOp{kind: opUpdate, id: live[rng.Intn(len(live))], vec: newVec()}
			op.sql = fmt.Sprintf("UPDATE %s SET vec = '%s' WHERE id = %d", table, vecLit(op.vec), op.id)
		}
		ops = append(ops, op)
	}
	return ops
}
