package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vecstudy/internal/client"
	"vecstudy/internal/pase/ivfflat"
	"vecstudy/internal/pase/ivfsq8"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/server"

	_ "vecstudy/internal/pase/all"
)

// env is one database served on loopback.
type env struct {
	d    *db.DB
	srv  *server.Server
	addr string
	dir  string // file-backed workloads only
}

func openEnv(w workload, dir string) (*env, error) {
	cfg := db.Config{BufferFrames: w.poolFrames}
	if w.wal {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		cfg.Dir, cfg.EnableWAL = dir, true
	}
	d, err := db.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open db: %w", err)
	}
	srv := server.New(d, server.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		d.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	return &env{d: d, srv: srv, addr: srv.Addr().String(), dir: cfg.Dir}, nil
}

// close drains the server, closes the database and removes its files.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if cerr := e.d.Close(); err == nil {
		err = cerr
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// dial opens a connection and applies the workload's SETs.
func (e *env) dial(w workload) (*client.Conn, error) {
	c, err := client.Dial(e.addr)
	if err != nil {
		return nil, err
	}
	for _, s := range w.sets {
		if _, err := c.Execute(s); err != nil {
			c.Close()
			return nil, fmt.Errorf("%s: %w", s, err)
		}
	}
	return c, nil
}

// setupTimes is one setup's cost: total through SQL, the INSERT phase,
// and the access method's own train and add phases of CREATE INDEX.
type setupTimes struct {
	total, load, train, add time.Duration
}

// setup loads the table and builds the index through SQL over the wire,
// the path a vdb user pays, timed from the first statement sent to the
// CREATE INDEX acknowledgment.
func (e *env) setup(w workload, in *inputs, seed int64) (setupTimes, error) {
	c, err := client.Dial(e.addr)
	if err != nil {
		return setupTimes{}, err
	}
	defer c.Close()
	var t setupTimes
	start := time.Now()
	if _, err := c.Execute(createTableSQL()); err != nil {
		return t, err
	}
	for _, s := range in.inserts {
		if _, err := c.Execute(s); err != nil {
			return t, fmt.Errorf("setup insert: %w", err)
		}
	}
	t.load = time.Since(start)
	if _, err := c.Execute(createIndexSQL(w.am, in.ds.NumClusters(), seed)); err != nil {
		return t, fmt.Errorf("create index: %w", err)
	}
	t.total = time.Since(start)
	idx, err := e.d.Index(indexName)
	if err != nil {
		return t, err
	}
	switch ix := idx.(type) {
	case *ivfflat.Index:
		t.train, t.add = ix.Stats().TrainTime, ix.Stats().AddTime
	case *ivfsq8.Index:
		t.train, t.add = ix.Stats().TrainTime, ix.Stats().AddTime
	}
	return t, nil
}

func setupDir(out, name string, i int) string {
	return filepath.Join(out, fmt.Sprintf("db-%s-%d", name, i))
}
