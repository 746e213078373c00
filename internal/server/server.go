// Package server is the network serving layer over the generalized
// engine: a TCP listener that speaks internal/wire and gives every
// connection its own SQL session, so scan knobs set with SET stay
// per-session the way PostgreSQL GUCs do.
//
// Connections pass admission control before they are served: a bounded
// pool of connection slots (MaxActive) plus a bounded wait queue
// (QueueDepth). When both are full the connection is rejected with a
// clean wire-level error (wire.CodeRejected) instead of hanging or
// spawning an unbounded goroutine — backpressure is explicit. Each
// query runs under a per-request timeout; a timed-out connection is
// closed, and its slot is released only when the abandoned statement
// actually finishes, so the worker bound stays honest.
//
// Shutdown drains gracefully: stop accepting, let in-flight statements
// finish, unblock idle readers, then close every connection.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"vecstudy/internal/batch"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/sql"
	"vecstudy/internal/vec"
	"vecstudy/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// MaxActive bounds concurrently served connections (the worker
	// pool). 0 means 64.
	MaxActive int
	// QueueDepth bounds connections waiting for a slot beyond
	// MaxActive. 0 means 128. Arrivals beyond MaxActive+QueueDepth are
	// rejected with wire.CodeRejected.
	QueueDepth int
	// QueueWait caps how long a queued connection waits for a slot
	// before it is rejected. 0 means 5s.
	QueueWait time.Duration
	// QueryTimeout caps one statement's execution. 0 means 30s.
	QueryTimeout time.Duration
}

func (c *Config) defaults() {
	if c.MaxActive <= 0 {
		c.MaxActive = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
}

// Session executes one connection's statements. sql.Session implements
// it for the single-node database; the cluster router implements it
// with scatter-gather sessions. Sessions are single-threaded: the
// server never issues a second Execute before the first returns.
type Session interface {
	Execute(text string) (*sql.Result, error)
}

// Backend supplies per-connection sessions. It is the seam that lets
// the same serving layer (admission control, timeouts, drain, stats)
// front either one database or a shard router.
type Backend interface {
	NewSession() Session
}

// StatsRower is an optional Backend extension: backends that carry
// their own counters (the cluster router's fanout/retry/failover/
// degraded tallies) contribute extra rows to SHOW server_stats.
type StatsRower interface {
	StatsRows() [][]any
}

// dbBackend adapts a single database to Backend. Every session funnels
// through one shared query coalescer, so concurrently arriving kNN
// queries can execute as multi-query probes (SET batch_window opts a
// session in; see internal/batch).
type dbBackend struct {
	d  *db.DB
	co *batch.Coalescer
}

func (b dbBackend) NewSession() Session { return batch.NewSession(sql.NewSession(b.d), b.co) }

// StatsRows contributes the coalescer's counters and the dynamic-data
// counters (dead tuples awaiting vacuum, delete/update/vacuum tallies)
// to SHOW server_stats.
func (b dbBackend) StatsRows() [][]any {
	rows := b.co.StatsRows()
	var dead int64
	for _, tm := range b.d.Catalog().Tables() {
		if tbl, err := b.d.Table(tm.Name); err == nil {
			dead += tbl.NDead()
		}
	}
	ms := b.d.Mutations()
	return append(rows,
		[]any{"kernel_default", vec.Default().Name()},
		[]any{"kernels_registered", strings.Join(vec.RegisteredKernelNames(), ",")},
		[]any{"dead_tuples", dead},
		[]any{"tuples_deleted", ms.TuplesDeleted},
		[]any{"tuples_updated", ms.TuplesUpdated},
		[]any{"vacuum_runs", ms.VacuumRuns},
		[]any{"vacuum_dead_reclaimed", ms.DeadReclaimed},
		[]any{"index_repairs", ms.IndexRepairs},
	)
}

// Server serves a backend over TCP.
type Server struct {
	backend Backend
	cfg     Config
	stats   stats

	lis      net.Listener
	slots    chan struct{} // capacity MaxActive; holding a token = being served
	draining chan struct{} // closed when Shutdown begins
	wg       sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// execDelay is a test hook: a pause (in nanoseconds) injected
	// before each statement so timeout and drain paths can be
	// exercised deterministically.
	execDelay atomic.Int64
}

// New wraps an open database in a server. The database is shared: DDL
// and data are visible to every connection; only SET knobs are
// per-session.
func New(d *db.DB, cfg Config) *Server {
	return NewWithBackend(dbBackend{d: d, co: batch.NewCoalescer()}, cfg)
}

// NewWithBackend wraps any Backend in a server — the cluster router
// mounts here so clients speak the identical wire protocol to a router
// as to a single server.
func NewWithBackend(b Backend, cfg Config) *Server {
	cfg.defaults()
	return &Server{
		backend:  b,
		cfg:      cfg,
		slots:    make(chan struct{}, cfg.MaxActive),
		draining: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Start binds addr (host:port; port 0 picks a free port) and begins
// accepting connections in the background.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr reports the bound listen address (useful with port 0).
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			// Listener closed (Shutdown) or fatal accept error: stop.
			return
		}
		s.stats.accepted.Add(1)
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// handle runs one connection: admission, then the session loop.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	if !s.admit(conn) {
		conn.Close()
		return
	}
	s.track(conn, true)
	s.stats.active.Add(1)
	sessionDone := s.serveSession(conn)
	s.track(conn, false)
	s.stats.active.Add(-1)
	conn.Close()
	// Release the slot only when the session's last statement has
	// finished — a timed-out statement may still be running.
	if sessionDone != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			<-sessionDone
			<-s.slots
		}()
	} else {
		<-s.slots
	}
}

// admit applies admission control. It returns true once the connection
// holds a slot; otherwise it writes a wire-level rejection and returns
// false.
func (s *Server) admit(conn net.Conn) bool {
	select {
	case <-s.draining:
		s.stats.rejected.Add(1)
		s.reject(conn, wire.CodeShutdown, "server is shutting down")
		return false
	default:
	}
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	// No free slot: try to queue.
	if n := s.stats.queued.Add(1); n > int64(s.cfg.QueueDepth) {
		s.stats.queued.Add(-1)
		s.stats.rejected.Add(1)
		s.reject(conn, wire.CodeRejected,
			fmt.Sprintf("admission queue full (%d active, %d queued)", s.cfg.MaxActive, s.cfg.QueueDepth))
		return false
	}
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		s.stats.queued.Add(-1)
		return true
	case <-timer.C:
		s.stats.queued.Add(-1)
		s.stats.rejected.Add(1)
		s.reject(conn, wire.CodeRejected, "timed out waiting for a connection slot")
		return false
	case <-s.draining:
		s.stats.queued.Add(-1)
		s.stats.rejected.Add(1)
		s.reject(conn, wire.CodeShutdown, "server is shutting down")
		return false
	}
}

func (s *Server) reject(conn net.Conn, code, msg string) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	wire.WriteFrame(conn, wire.TError, wire.EncodeError(code, msg))
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// serveSession runs the frame loop for one admitted connection. When a
// statement outlived its timeout, the returned channel closes once that
// statement finishes; otherwise it returns nil.
func (s *Server) serveSession(conn net.Conn) <-chan struct{} {
	sess := s.backend.NewSession()
	for {
		select {
		case <-s.draining:
			s.reject(conn, wire.CodeShutdown, "server is shutting down")
			return nil
		default:
		}
		t, payload, err := wire.ReadFrame(conn)
		if err != nil {
			// Client went away or drain unblocked an idle read.
			return nil
		}
		switch t {
		case wire.TTerminate:
			return nil
		case wire.TPing:
			if err := wire.WriteFrame(conn, wire.TDone, wire.EncodeDone(0)); err != nil {
				return nil
			}
		case wire.TQuery:
			done, alive := s.runQuery(conn, sess, wire.DecodeQuery(payload))
			if !alive {
				return done
			}
		default:
			wire.WriteFrame(conn, wire.TError,
				wire.EncodeError(wire.CodeError, fmt.Sprintf("unexpected frame type %q", byte(t))))
			return nil
		}
	}
}

// runQuery executes one statement under the per-query timeout and
// writes the response. alive reports whether the session may continue;
// when a timeout fires, alive is false and done closes when the
// abandoned statement finishes (sessions are single-threaded, so the
// connection cannot accept further statements while one is running).
func (s *Server) runQuery(conn net.Conn, sess Session, text string) (done <-chan struct{}, alive bool) {
	if res, handled := s.utilityQuery(text); handled {
		s.respond(conn, res, nil, 0)
		return nil, true
	}
	type outcome struct {
		res *sql.Result
		err error
	}
	ch := make(chan outcome, 1)
	finished := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(finished)
		if d := s.execDelay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		r, err := sess.Execute(text)
		ch <- outcome{r, err}
	}()
	timer := time.NewTimer(s.cfg.QueryTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		s.respond(conn, out.res, out.err, time.Since(start))
		return nil, true
	case <-timer.C:
		// Drain-and-deliver race: prefer a result that arrived with the
		// timeout. Otherwise abandon the statement and close the
		// connection — the session is not safe for a second concurrent
		// statement.
		select {
		case out := <-ch:
			s.respond(conn, out.res, out.err, time.Since(start))
			return nil, true
		default:
		}
		s.stats.timeouts.Add(1)
		s.reject(conn, wire.CodeTimeout,
			fmt.Sprintf("statement exceeded the %v query timeout", s.cfg.QueryTimeout))
		return finished, false
	}
}

// respond writes one statement outcome and records serving stats.
func (s *Server) respond(conn net.Conn, res *sql.Result, err error, elapsed time.Duration) {
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	defer conn.SetWriteDeadline(time.Time{})
	if err != nil {
		s.stats.errors.Add(1)
		wire.WriteFrame(conn, wire.TError, wire.EncodeError(wire.CodeError, err.Error()))
		return
	}
	s.stats.queries.Add(1)
	if elapsed > 0 {
		// Server-side utility answers (elapsed 0) stay out of the
		// latency histogram; it reports SQL execution only.
		s.stats.observe(elapsed)
	}
	wire.WriteResult(conn, &wire.Result{Cols: res.Cols, Rows: res.Rows, Msg: res.Msg})
}

// ServerStatsQuery is the utility statement the server answers itself,
// without reaching the SQL layer: the serving-side analogue of
// PostgreSQL's pg_stat_activity.
const ServerStatsQuery = "server_stats"

// utilityQuery intercepts SHOW server_stats.
func (s *Server) utilityQuery(text string) (*sql.Result, bool) {
	if !isServerStatsQuery(text) {
		return nil, false
	}
	st := s.Stats()
	res := &sql.Result{Cols: []string{"metric", "value"}}
	for _, row := range [][]any{
		{"conns_accepted", st.Accepted},
		{"conns_active", st.Active},
		{"conns_queued", st.Queued},
		{"conns_rejected", st.Rejected},
		{"queries_served", st.Queries},
		{"query_errors", st.Errors},
		{"query_timeouts", st.Timeouts},
		{"latency_p50", st.P50.String()},
		{"latency_p99", st.P99.String()},
	} {
		res.Rows = append(res.Rows, row)
	}
	if sr, ok := s.backend.(StatsRower); ok {
		res.Rows = append(res.Rows, sr.StatsRows()...)
	}
	return res, true
}

// isServerStatsQuery reports whether text is SHOW server_stats: the two
// words in any letter case, separated and surrounded by whitespace,
// with at most one trailing ';'. It runs on every statement, so it
// matches in place instead of lower-casing and splitting the text (a
// bulk INSERT is hundreds of kilobytes).
func isServerStatsQuery(text string) bool {
	text = strings.TrimSuffix(strings.TrimSpace(text), ";")
	i := strings.IndexFunc(text, unicode.IsSpace)
	return i >= 0 && equalFoldASCII(text[:i], "show") &&
		equalFoldASCII(strings.TrimSpace(text[i:]), ServerStatsQuery)
}

// equalFoldASCII reports whether s is the lower-case ASCII word w in
// any letter case. Only ASCII letters fold: no other rune lower-cases
// to a letter of "show" or "server_stats".
func equalFoldASCII(s, w string) bool {
	if len(s) != len(w) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != w[i] {
			return false
		}
	}
	return true
}

// Shutdown drains the server: stop accepting, reject queued arrivals,
// let in-flight statements finish, unblock idle connections, and wait
// for every handler (bounded by ctx).
func (s *Server) Shutdown(ctx context.Context) error {
	select {
	case <-s.draining:
		return errors.New("server: already shut down")
	default:
	}
	close(s.draining)
	if s.lis != nil {
		s.lis.Close()
	}
	// Unblock connections parked in ReadFrame between statements. A
	// connection mid-statement is unaffected until it next reads, i.e.
	// after its in-flight response is written.
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		// Force-close stragglers so their handlers exit.
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}
