package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vecstudy/internal/minheap"
	"vecstudy/internal/vec"
	"vecstudy/internal/wire"
)

// answer is one kNN reply as the client saw it.
type answer struct {
	query  int   // index into inputs.queries
	sentNs int64 // send time, ns since the window's clock base
	ids    []int64
}

// resultIDs extracts the single integer column of a result: the ids of
// a kNN answer, or the value of count(*).
func resultIDs(res *wire.Result) ([]int64, error) {
	ids := make([]int64, len(res.Rows))
	for i, row := range res.Rows {
		if len(row) != 1 {
			return nil, fmt.Errorf("row %d has %d columns, want 1", i, len(row))
		}
		switch v := row[0].(type) {
		case int32:
			ids[i] = int64(v)
		case int64:
			ids[i] = v
		default:
			return nil, fmt.Errorf("row %d: id has type %T", i, row[0])
		}
	}
	return ids, nil
}

// ackCount parses the row count of an acknowledgment such as
// "INSERT 0 1", "DELETE 1" or "UPDATE 0".
func ackCount(msg string) (int, error) {
	f := strings.Fields(msg)
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected acknowledgment %q", msg)
	}
	return strconv.Atoi(f[len(f)-1])
}

// resurrections counts answers that contain an id whose DELETE had been
// acknowledged before the query was sent. deletedAt maps each id to the
// ack time of its DELETE, on the same clock as answer.sentNs; ids are
// never re-inserted, so a later sighting is always a violation.
func resurrections(deletedAt map[int64]int64, answers []answer) (bad int, first string) {
	for _, a := range answers {
		for _, id := range a.ids {
			if at, ok := deletedAt[id]; ok && at < a.sentNs {
				if bad == 0 {
					first = fmt.Sprintf("id %d deleted at %dns returned by query %d sent at %dns", id, at, a.query, a.sentNs)
				}
				bad++
				break
			}
		}
	}
	return bad, first
}

// countMismatch reports whether SELECT count(*) disagrees with the
// live-row count the acknowledged INSERT and DELETE messages imply.
func countMismatch(got, want int64) error {
	if got != want {
		return fmt.Errorf("count(*) = %d, acknowledged writes imply %d live rows", got, want)
	}
	return nil
}

// exactTopK returns the ids of the k rows nearest q among live, with
// the ref kernel (the oracle must not move with the kernel under test).
func exactTopK(q []float32, live map[int64][]float32) map[int64]bool {
	ref := vec.Ref()
	h := minheap.NewTopK(k)
	for id, v := range live {
		h.Push(id, ref.L2Sqr(q, v))
	}
	out := make(map[int64]bool, k)
	for _, it := range h.Results() {
		out[it.ID] = true
	}
	return out
}

// recallAt10 is the mean share of each query's exact top-10 present in
// the engine's answer.
func recallAt10(queries [][]float32, got [][]int64, live map[int64][]float32) float64 {
	var hits, total int
	for i, q := range queries {
		truth := exactTopK(q, live)
		total += len(truth)
		for _, id := range got[i] {
			if truth[id] {
				hits++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// sameIDs reports whether two answers list the same ids in order.
func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// quantile is the nearest-rank p-quantile of xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(p*float64(len(xs))+0.999999999) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond is how many of n samples lie above the nearest-rank
// p-quantile.
func beyond(n int, p float64) int {
	return n - int(p*float64(n)+0.999999999)
}
