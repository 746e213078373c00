package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"vecstudy/internal/client"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/sql"
	"vecstudy/internal/wire"

	_ "vecstudy/internal/pase/all"
)

// newServer starts a server over a fresh in-memory database preloaded
// with n vectors on a line (so nearest neighbors are unambiguous) and
// an IVF_FLAT index.
func newServer(t *testing.T, n int, cfg Config) *Server {
	t.Helper()
	d, err := db.Open(db.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	sess := sql.NewSession(d)
	mustExec := func(q string) {
		t.Helper()
		if _, err := sess.Execute(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec("CREATE TABLE t (id int, vec float[])")
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, '{%d, %d, 0, 0}')", i, i, i)
	}
	mustExec(b.String())
	mustExec("CREATE INDEX idx ON t USING ivfflat (vec) WITH (clusters = 8, sample_ratio = 1, seed = 1)")

	s := New(d, cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func dial(t *testing.T, s *Server) *client.Conn {
	t.Helper()
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServeBasic(t *testing.T) {
	s := newServer(t, 100, Config{})
	c := dial(t, s)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	res, err := c.Execute("SELECT id, distance FROM t ORDER BY vec <-> '{42, 42, 0, 0}' LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].(int32) != 42 {
		t.Fatalf("search rows = %v", res.Rows)
	}
	if res.Cols[1] != "distance" {
		t.Errorf("cols = %v", res.Cols)
	}

	// DDL and writes flow through too.
	res, err = c.Execute("INSERT INTO t VALUES (999, '{500, 500, 0, 0}')")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Msg, "INSERT") {
		t.Errorf("insert msg = %q", res.Msg)
	}

	// A statement error is a wire.Error, and the session survives it.
	_, err = c.Execute("SELECT nope FROM t")
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeError {
		t.Fatalf("statement error = %v, want wire.Error/XX000", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("session dead after statement error: %v", err)
	}

	// SHOW server_stats is answered by the server itself.
	res, err = c.Execute("SHOW server_stats")
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]any{}
	for _, row := range res.Rows {
		vals[row[0].(string)] = row[1]
	}
	if n := vals["queries_served"].(int64); n < 2 {
		t.Errorf("queries_served = %d, want >= 2", n)
	}
	if n := vals["query_errors"].(int64); n != 1 {
		t.Errorf("query_errors = %d, want 1", n)
	}
	if vals["conns_active"].(int64) != 1 {
		t.Errorf("conns_active = %v, want 1", vals["conns_active"])
	}
}

func TestPerSessionSetIsolation(t *testing.T) {
	s := newServer(t, 50, Config{})
	c1, c2 := dial(t, s), dial(t, s)
	if _, err := c1.Execute("SET nprobe = 3"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Execute("SET nprobe = 7"); err != nil {
		t.Fatal(err)
	}
	for i, want := range map[*client.Conn]string{c1: "3", c2: "7"} {
		res, err := i.Execute("SHOW nprobe")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].(string); got != want {
			t.Errorf("SHOW nprobe = %q, want %q", got, want)
		}
	}
	// An unknown knob is rejected per-session as well.
	if _, err := c1.Execute("SET wibble = 1"); err == nil {
		t.Error("unknown knob accepted over the wire")
	}
}

// TestConcurrentClients drives the server from 20 connections at once,
// each with its own session knobs, under -race.
func TestConcurrentClients(t *testing.T) {
	const clients, perClient = 20, 15
	s := newServer(t, 200, Config{MaxActive: clients})
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			nprobe := 1 + i%8
			if _, err := c.Execute(fmt.Sprintf("SET nprobe = %d", nprobe)); err != nil {
				errs[i] = err
				return
			}
			for q := 0; q < perClient; q++ {
				target := (i*perClient + q) % 200
				res, err := c.Execute(fmt.Sprintf(
					"SELECT id FROM t ORDER BY vec <-> '{%d, %d, 0, 0}' LIMIT 1", target, target))
				if err != nil {
					errs[i] = fmt.Errorf("client %d query %d: %w", i, q, err)
					return
				}
				if len(res.Rows) != 1 {
					errs[i] = fmt.Errorf("client %d query %d: %d rows", i, q, len(res.Rows))
					return
				}
			}
			// The session's knob must not have been clobbered by peers.
			res, err := c.Execute("SHOW nprobe")
			if err != nil {
				errs[i] = err
				return
			}
			if got := res.Rows[0][0].(string); got != fmt.Sprint(nprobe) {
				errs[i] = fmt.Errorf("client %d: nprobe = %s, want %d", i, got, nprobe)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Accepted < clients {
		t.Errorf("accepted = %d, want >= %d", st.Accepted, clients)
	}
	if st.Queries < clients*perClient {
		t.Errorf("queries = %d, want >= %d", st.Queries, clients*perClient)
	}
	if st.Rejected != 0 {
		t.Errorf("rejected = %d, want 0", st.Rejected)
	}
	if st.P99 == 0 || st.P50 > st.P99 {
		t.Errorf("latency percentiles p50=%v p99=%v", st.P50, st.P99)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestQueueFullRejection(t *testing.T) {
	s := newServer(t, 20, Config{MaxActive: 1, QueueDepth: 1, QueueWait: time.Minute})

	// First connection takes the only slot.
	c1 := dial(t, s)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}

	// Second connection fills the one queue spot; its ping parks.
	c2 := dial(t, s)
	pinged := make(chan error, 1)
	go func() { pinged <- c2.Ping() }()
	waitFor(t, "connection to queue", func() bool { return s.Stats().Queued == 1 })

	// Third connection overflows the queue: clean wire-level rejection,
	// not a hang.
	c3 := dial(t, s)
	_, err := c3.Execute("SELECT id FROM t LIMIT 1")
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeRejected {
		t.Fatalf("overflow conn err = %v, want wire.Error/%s", err, wire.CodeRejected)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}

	// Releasing the slot admits the queued connection.
	c1.Close()
	if err := <-pinged; err != nil {
		t.Fatalf("queued connection never admitted: %v", err)
	}
}

func TestQueryTimeout(t *testing.T) {
	s := newServer(t, 20, Config{QueryTimeout: 20 * time.Millisecond})
	s.execDelay.Store(int64(200 * time.Millisecond))
	c := dial(t, s)
	_, err := c.Execute("SELECT id FROM t LIMIT 1")
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeTimeout {
		t.Fatalf("err = %v, want wire.Error/%s", err, wire.CodeTimeout)
	}
	if got := s.Stats().Timeouts; got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	// The timed-out connection is closed; a fresh one still serves once
	// the abandoned statement releases its slot.
	waitFor(t, "slot release", func() bool { return s.Stats().Active == 0 })
	s.execDelay.Store(0)
	c2 := dial(t, s)
	if _, err := c2.Execute("SELECT id FROM t LIMIT 1"); err != nil {
		t.Fatalf("fresh connection after timeout: %v", err)
	}
}

func TestGracefulDrain(t *testing.T) {
	d, err := db.Open(db.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sess := sql.NewSession(d)
	if _, err := sess.Execute("CREATE TABLE t (id int, vec float[])"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("INSERT INTO t VALUES (1, '{1, 2}')"); err != nil {
		t.Fatal(err)
	}
	s := New(d, Config{})
	s.execDelay.Store(int64(100 * time.Millisecond))
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	idle := dial(t, s)
	if err := idle.Ping(); err != nil {
		t.Fatal(err)
	}
	busy := dial(t, s)
	type outcome struct {
		res *wire.Result
		err error
	}
	inflight := make(chan outcome, 1)
	go func() {
		res, err := busy.Execute("SELECT id FROM t LIMIT 1")
		inflight <- outcome{res, err}
	}()
	// Let the in-flight statement reach the server before draining.
	waitFor(t, "in-flight query", func() bool { return s.Stats().Active == 2 })
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Errorf("drain took %v", time.Since(start))
	}

	// The in-flight statement finished and its answer was delivered.
	out := <-inflight
	if out.err != nil {
		t.Fatalf("in-flight query dropped during drain: %v", out.err)
	}
	if len(out.res.Rows) != 1 {
		t.Errorf("in-flight rows = %v", out.res.Rows)
	}

	// Connections are gone; new work fails fast.
	if st := s.Stats(); st.Active != 0 {
		t.Errorf("active after drain = %d", st.Active)
	}
	if err := idle.Ping(); err == nil {
		t.Error("idle connection still alive after drain")
	}
	if _, err := client.Dial(s.Addr().String()); err == nil {
		// A dial may still connect if the OS races the close; executing
		// must fail either way.
		t.Log("dial succeeded after shutdown (OS accept-queue race); tolerated")
	}
	if err := s.Shutdown(ctx); err == nil {
		t.Error("second shutdown did not report already shut down")
	}
}

// TestBatchedServingEndToEnd drives coalescing over the wire: clients
// opt in with SET batch_window, issue concurrent kNN queries, and get
// exactly the rows a solo session returns, while SHOW server_stats
// reports the probes the shared coalescer flushed.
func TestBatchedServingEndToEnd(t *testing.T) {
	const clients, perClient = 8, 6
	s := newServer(t, 200, Config{MaxActive: clients + 1})

	// Solo baselines through a client with coalescing off.
	base := dial(t, s)
	want := make(map[int]int32)
	for q := 0; q < perClient; q++ {
		res, err := base.Execute(fmt.Sprintf(
			"SELECT id FROM t ORDER BY vec <-> '{%d, %d, 0, 0}' LIMIT 1", q*13, q*13))
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res.Rows[0][0].(int32)
	}

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			for _, set := range []string{"SET batch_window = 2000", "SET batch_max = 8"} {
				if _, err := c.Execute(set); err != nil {
					errs[i] = err
					return
				}
			}
			for q := 0; q < perClient; q++ {
				res, err := c.Execute(fmt.Sprintf(
					"SELECT id FROM t ORDER BY vec <-> '{%d, %d, 0, 0}' LIMIT 1", q*13, q*13))
				if err != nil {
					errs[i] = fmt.Errorf("client %d query %d: %w", i, q, err)
					return
				}
				if got := res.Rows[0][0].(int32); got != want[q] {
					errs[i] = fmt.Errorf("client %d query %d: id %d, solo %d", i, q, got, want[q])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	res, err := base.Execute("SHOW server_stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := map[string]string{}
	for _, row := range res.Rows {
		stats[row[0].(string)] = fmt.Sprint(row[1])
	}
	for _, key := range []string{"batch_probes", "batch_queries_batched", "batch_queries_solo", "batch_queries_unbatchable", "batch_max_size"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("SHOW server_stats is missing %q", key)
		}
	}
	if stats["batch_probes"] == "0" {
		t.Error("no multi-query probe flushed despite batch_window > 0")
	}
	if stats["batch_queries_solo"] == "0" {
		t.Error("baseline client's window=0 queries were not counted solo")
	}
}

// TestIsServerStatsQuery pins the texts the server answers itself: the
// forms the former lower-case-and-split match accepted, and no others.
func TestIsServerStatsQuery(t *testing.T) {
	for _, tc := range []struct {
		text string
		want bool
	}{
		{"SHOW server_stats", true},
		{"show server_stats;", true},
		{"Show SERVER_STATS", true},
		{"  SHOW \t server_stats ;  \n", true},
		{"SHOW\nserver_stats", true},
		{"SHOW\u00a0server_stats", true}, // Unicode space separates too
		{" SHOW server_stats; ", true},
		{"", false},
		{";", false},
		{"SHOW", false},
		{"SHOW;", false},
		{"server_stats", false},
		{"SHOWserver_stats", false},
		{"SHOW server_stats;;", false},
		{"SHOW server_stats extra", false},
		{"SHOW server_stats; SHOW server_stats", false},
		{"; SHOW server_stats", false},
		{"SHOW server_stat", false},
		{"SHOW server_statsx", false},
		{"SHOW ALL", false},
		{"SELECT server_stats", false},
		{"SHOW \"server_stats\"", false},
		{"\u017fhow server_stats", false}, // ſ case-folds to s but does not lower-case to it
	} {
		if got := isServerStatsQuery(tc.text); got != tc.want {
			t.Errorf("isServerStatsQuery(%q) = %v, want %v", tc.text, got, tc.want)
		}
		fields := strings.Fields(strings.ToLower(strings.TrimSuffix(strings.TrimSpace(tc.text), ";")))
		former := len(fields) == 2 && fields[0] == "show" && fields[1] == ServerStatsQuery
		if former != tc.want {
			t.Errorf("%q: former match %v, table says %v", tc.text, former, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { isServerStatsQuery("  show SERVER_STATS ;") }); n != 0 {
		t.Errorf("isServerStatsQuery allocates %v times per call", n)
	}
}
