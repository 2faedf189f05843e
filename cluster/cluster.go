// Package cluster is the distributed variant of mvdb: multiple sites,
// each with its own version-control counters and queue (paper Section 6),
// partitioned keys, two-phase commit with max-vote transaction numbers
// for read-write transactions, and single-start-number read-only
// transactions that are globally one-copy serializable without knowing
// their read sites in advance.
//
//	c, err := cluster.Open(cluster.Options{Sites: 3})
//	...
//	err = c.Update(func(tx *cluster.Tx) error { ... })   // 2PC underneath
//	err = c.View(func(tx *cluster.Tx) error { ... })     // global snapshot
package cluster

import (
	"fmt"
	"time"

	"mvdb"
	"mvdb/internal/dist"
	"mvdb/internal/engine"
)

// Options configures Open.
type Options struct {
	// Sites is the number of sites (required).
	Sites int
	// Latency simulates one-way message latency between the coordinator
	// and a site.
	Latency time.Duration
	// WALDir makes every site durable (one commit log per site under
	// this directory): Open resumes from existing logs, and
	// CrashSite/RecoverSite model fail-stop site failures.
	WALDir string
}

// Cluster is an open distributed database.
type Cluster struct {
	c *dist.Cluster
}

// Open creates a cluster.
func Open(opts Options) (*Cluster, error) {
	c, err := dist.New(dist.Options{
		Sites:   opts.Sites,
		Latency: opts.Latency,
		WALDir:  opts.WALDir,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// Close shuts the cluster down.
func (c *Cluster) Close() error { return c.c.Close() }

// Bootstrap loads initial data (version 0) into the owning sites; it must
// precede the first transaction. With WALDir set each site logs its part,
// so it survives a site crash and a restart.
func (c *Cluster) Bootstrap(data map[string][]byte) error { return c.c.Bootstrap(data) }

// SiteOf returns the site index owning key (for workload placement).
func (c *Cluster) SiteOf(key string) int { return c.c.SiteFor(key).ID() }

// Stats returns cluster counters, including "bus.messages" (simulated
// exchanges), "ro.waits" and "ro.fillers" (read-only visibility catch-up
// events).
func (c *Cluster) Stats() map[string]int64 { return c.c.Stats() }

// CrashSite destroys one site's volatile state (fail-stop model;
// requires Options.WALDir). No transaction may be in flight at the site.
func (c *Cluster) CrashSite(site int) error { return c.c.CrashSite(site) }

// RecoverSite rebuilds a crashed site from its commit log.
func (c *Cluster) RecoverSite(site int) error { return c.c.RecoverSite(site) }

// Begin starts a distributed read-write transaction (two-phase locking at
// each touched site; two-phase commit at Commit).
func (c *Cluster) Begin() (*Tx, error) {
	t, err := c.c.Begin(engine.ReadWrite)
	if err != nil {
		return nil, err
	}
	return &Tx{t: t}, nil
}

// BeginReadOnly starts a global read-only snapshot at the cluster's
// committed high-water mark: it observes every transaction committed
// before the call, waiting (only where needed) for lagging sites'
// visibility to catch up. For the cheapest possible snapshot — no
// waiting anywhere, possibly stale — use BeginReadOnlyAtHome.
func (c *Cluster) BeginReadOnly() (*Tx, error) {
	t, err := c.c.Begin(engine.ReadOnly)
	if err != nil {
		return nil, err
	}
	return &Tx{t: t}, nil
}

// BeginReadOnlyAtHome anchors the snapshot at a specific site: the start
// number is that site's visibility horizon. Anchor where you expect to
// read for the freshest snapshot.
func (c *Cluster) BeginReadOnlyAtHome(site int) (*Tx, error) {
	t, err := c.c.BeginReadOnlyAtHome(site)
	if err != nil {
		return nil, err
	}
	return &Tx{t: t}, nil
}

// View runs fn in a global read-only transaction. If fn panics, the
// transaction is aborted and the panic goes on.
func (c *Cluster) View(fn func(*Tx) error) error {
	tx, err := c.BeginReadOnly()
	if err != nil {
		return err
	}
	defer tx.Abort() // a no-op once committed; unpublishes the snapshot if fn panics
	if err := fn(tx); err != nil {
		return err
	}
	return tx.Commit()
}

// Update runs fn in a distributed read-write transaction, retrying
// retryable aborts (lock timeouts standing in for distributed deadlock
// resolution), with mvdb.Update's backoff between retries. If fn
// panics, the attempt's transaction is aborted — its locks given back at
// every site — and the panic goes on.
func (c *Cluster) Update(fn func(*Tx) error) error {
	var last error
	for attempt := 0; engine.Backoff(attempt); attempt++ {
		err := c.attempt(fn)
		if err == nil {
			return nil
		}
		if !mvdb.IsRetryable(err) {
			return err
		}
		last = err
	}
	return fmt.Errorf("cluster: update retries exhausted: %w", last)
}

// attempt runs fn in one read-write transaction and commits it.
func (c *Cluster) attempt(fn func(*Tx) error) error {
	tx, err := c.Begin()
	if err != nil {
		return err
	}
	defer tx.Abort() // a no-op once committed; gives back locks if fn panics
	if err := fn(tx); err != nil {
		return err
	}
	return tx.Commit()
}

// Tx is a distributed transaction handle.
type Tx struct {
	t engine.Tx
}

// Get returns the value of key from its owning site.
func (tx *Tx) Get(key string) ([]byte, error) { return tx.t.Get(key) }

// Put writes key at its owning site.
func (tx *Tx) Put(key string, value []byte) error { return tx.t.Put(key, value) }

// Delete tombstones key.
func (tx *Tx) Delete(key string) error { return tx.t.Delete(key) }

// Commit finishes the transaction (two-phase commit for read-write).
func (tx *Tx) Commit() error { return tx.t.Commit() }

// Abort discards the transaction.
func (tx *Tx) Abort() { tx.t.Abort() }

// Scan iterates all live keys with prefix across every site in ascending
// order at the transaction's global snapshot (read-only only).
func (tx *Tx) Scan(prefix string, fn func(key string, value []byte) bool) error {
	if s, ok := tx.t.(engine.Scanner); ok {
		return s.Scan(prefix, fn)
	}
	return fmt.Errorf("%w: Scan requires a read-only transaction", mvdb.ErrReadOnly)
}

// TN returns the transaction's global serialization position (see
// mvdb.Tx.TN).
func (tx *Tx) TN() (uint64, bool) { return tx.t.SN() }
