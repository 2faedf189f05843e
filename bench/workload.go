package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"mvdb"
)

const (
	// clients is the number of closed-loop client goroutines, and the
	// GOMAXPROCS the rig pins: the sandbox has two cores.
	clients   = 2
	valueSize = 64 // bytes; the first 8 are the counter every RMW increments
	scanLen   = 32
	hotKey    = "hot"
	// freshEvery: one update in this many also creates a key.
	freshEvery = 1024
)

// kind is a transaction shape.
type kind int

const (
	viewGets     kind = iota // Get of 4 uniform keys
	viewHot                  // Get of the hot key and 3 uniform keys
	viewScan                 // ordered Scan of scanLen keys from a random prefix
	updRMW2                  // read-modify-write of 2 uniform keys, in key order
	updRMW2Fresh             // updRMW2, and one in freshEvery also Puts a new key between existing ones
	updHot                   // blind Put of the hot key, then RMW of 1 uniform key
)

// spec is one workload. sliceTxns is fixed, not timed, so that the work
// of a run depends on the seed and the slice count alone; sliceSec is how
// long that many transactions take on the reference sandbox, and turns
// -seconds into a slice count.
type spec struct {
	name, why    string
	durable      bool // log to the modelled device under group commit
	gated        bool // listed in BENCHMARK.json: the driver runs it and holds it to the bounds
	keys         int
	viewPct      uint32
	view, update kind
	sliceTxns    int // per client
	sliceSec     float64
	viewEvery    int // time one view in this many
}

var workloads = []spec{
	{
		name: "mem-view-heavy",
		why:  "95% 4-Get Views, no log: the paper's read-only path (vc start, snapshot read); lock, wal and index barely run",
		keys: 2_000, viewPct: 95, view: viewGets, update: updRMW2,
		sliceTxns: 250_000, sliceSec: 0.5, viewEvery: 8,
	},
	{
		name: "mem-update-scan",
		why:  "70% RMW Updates that also insert keys beside 30% 32-key Scans, no log: installs, index inserts and ordered reads share storage; plus lock, vc and GC",
		keys: 2_000, viewPct: 30, view: viewScan, update: updRMW2Fresh,
		sliceTxns: 60_000, sliceSec: 0.5, viewEvery: 8,
	},
	{
		name: "dur-hot-key", durable: true, gated: true,
		why:  "80% Updates all writing one hot key, logged to the modelled 1 ms device: the hot lock is held across the fsync wait, so commits serialise at fsync pace",
		keys: 4_000, viewPct: 20, view: viewHot, update: updHot,
		sliceTxns: 650, sliceSec: 1.25, viewEvery: 1,
	},
	{
		name: "dur-mixed-uniform", durable: true, gated: true,
		why:  "50/50 Views and uniform RMW Updates on the modelled device: no lock conflicts, so group commit batches both clients; the bypass for hot-key changes",
		keys: 4_000, viewPct: 50, view: viewGets, update: updRMW2,
		sliceTxns: 1_100, sliceSec: 0.8, viewEvery: 1,
	},
}

// keyWidth is the digit count of a key name: "k" + keyWidth digits. Keys
// sort in index order, and a scan prefix ("k" + keyWidth-2 digits) covers
// 100 loaded keys.
func (w *spec) keyWidth() int { return len(strconv.Itoa(w.keys - 1)) }

// dataset is a workload's generated input: key names and the loaded
// values. Values are never mutated (every write installs a fresh slice),
// so one dataset serves every set-up of a run.
type dataset struct {
	keys     []string // sorted; what transactions draw from
	load     []string // keys, and the hot key where the workload has one
	prefixes []string
	initial  map[string][]byte
}

func newDataset(w *spec, seed uint64) *dataset {
	rng := rand.New(rand.NewPCG(seed, 0xda7a))
	d := &dataset{keys: make([]string, w.keys), initial: make(map[string][]byte, w.keys+1)}
	width := w.keyWidth()
	for i := range d.keys {
		d.keys[i] = fmt.Sprintf("k%0*d", width, i)
		d.initial[d.keys[i]] = newValue(0, rng.Uint64())
	}
	for i := 0; i < w.keys/100; i++ {
		d.prefixes = append(d.prefixes, fmt.Sprintf("k%0*d", width-2, i))
	}
	d.load = d.keys
	if w.update == updHot {
		d.initial[hotKey] = newValue(0, rng.Uint64())
		d.load = append([]string{hotKey}, d.keys...)
	}
	return d
}

// newValue builds a value with the given counter; fill pads it.
func newValue(counter, fill uint64) []byte {
	v := make([]byte, valueSize)
	binary.LittleEndian.PutUint64(v, counter)
	for i := 8; i < valueSize; i += 8 {
		binary.LittleEndian.PutUint64(v[i:], fill)
	}
	return v
}

func counterOf(v []byte) uint64 { return binary.LittleEndian.Uint64(v) }

// txn is what a transaction body needs of *mvdb.Tx; the traced run
// passes a wrapper that times each call.
type txn interface {
	Get(key string) ([]byte, error)
	Put(key string, value []byte) error
	Scan(prefix string, fn func(key string, value []byte) bool) error
}

var (
	errBadValue  = errors.New("bench: value of the wrong size")
	errShortScan = errors.New("bench: scan returned fewer keys than asked for")
)

// client is one closed-loop client: it draws its transactions from its
// own seeded stream and issues the next only when the last has returned.
type client struct {
	id   int
	w    *spec
	d    *dataset
	db   *mvdb.DB
	rng  *rand.Rand
	tr   *tracer // nil unless this is the traced run
	ttx  tracedTx
	pick [4]int // key indexes of the transaction in flight, ascending
	// fresh is the key the update in flight creates ("" for none).
	fresh    string
	freshSeq int
	hotSeq   uint64 // counter of this client's last blind write to the hot key
	scanned  int
	sink     uint64 // keeps reads live

	viewFn, updateFn func(*mvdb.Tx) error
	scanFn           func(string, []byte) bool

	// Tallies, cumulative over the client's life.
	attempted, failed  int64
	views, updates     int64 // committed
	retries            int64 // counted by the traced run's own retry loop
	increments         uint64
	userBytes          int64 // key and value bytes of committed writes
	viewLat, updateLat []int64
}

func newClient(id int, w *spec, d *dataset, db *mvdb.DB, seed uint64) *client {
	c := &client{id: id, w: w, d: d, db: db, rng: rand.New(rand.NewPCG(seed, uint64(id)+1))}
	c.viewFn = func(tx *mvdb.Tx) error { return c.view(tx) }
	c.updateFn = func(tx *mvdb.Tx) error { return c.update(tx) }
	c.scanFn = func(_ string, v []byte) bool {
		c.sink += counterOf(v)
		c.scanned++
		return c.scanned < scanLen
	}
	return c
}

// run executes n transactions, timing every update and one view in
// viewEvery.
func (c *client) run(n int) {
	c.viewLat, c.updateLat = c.viewLat[:0], c.updateLat[:0]
	for i := 0; i < n; i++ {
		isView := c.rng.Uint32N(100) < c.w.viewPct
		c.choose(isView)
		timed := !isView || i%c.w.viewEvery == 0
		var start time.Time
		if timed {
			start = time.Now()
		}
		err := c.do(isView)
		if timed {
			d := time.Since(start).Nanoseconds()
			if isView {
				c.viewLat = append(c.viewLat, d)
			} else {
				c.updateLat = append(c.updateLat, d)
			}
		}
		c.attempted++
		switch {
		case err != nil:
			c.failed++
		case isView:
			c.views++
		default:
			c.committed()
		}
	}
}

// choose draws the keys of the next transaction, before it starts, so a
// retried update repeats the same transaction.
func (c *client) choose(isView bool) {
	n := len(c.d.keys)
	c.fresh = ""
	if isView {
		if c.w.view == viewScan {
			c.pick[0] = c.rng.IntN(len(c.d.prefixes))
			return
		}
		for i := range c.pick {
			c.pick[i] = c.rng.IntN(n)
		}
		return
	}
	a := c.rng.IntN(n)
	if c.w.update == updHot {
		c.pick[0] = a
		return
	}
	b := c.rng.IntN(n - 1)
	if b >= a {
		b++
	}
	c.pick[0], c.pick[1] = min(a, b), max(a, b)
	if c.w.update == updRMW2Fresh && c.rng.Uint32N(freshEvery) == 0 {
		// Sorts after its base key and before the next loaded key.
		c.fresh = c.d.keys[a] + "+" + strconv.Itoa(c.id) + "." + strconv.Itoa(c.freshSeq)
	}
}

// do runs the chosen transaction through the public API.
func (c *client) do(isView bool) error {
	switch {
	case c.tr != nil:
		return c.doTraced(isView)
	case isView:
		return c.db.View(c.viewFn)
	default:
		return c.db.Update(c.updateFn)
	}
}

// committed books an update that returned nil.
func (c *client) committed() {
	c.updates++
	keyLen := int64(len(c.d.keys[0]))
	switch c.w.update {
	case updHot:
		c.hotSeq++
		c.increments++
		c.userBytes += int64(len(hotKey)) + keyLen + 2*valueSize
	default:
		c.increments += 2
		c.userBytes += 2 * (keyLen + valueSize)
		if c.fresh != "" {
			c.freshSeq++
			c.increments++
			c.userBytes += int64(len(c.fresh)) + valueSize
		}
	}
}

func (c *client) view(tx txn) error {
	if c.w.view == viewScan {
		c.scanned = 0
		if err := tx.Scan(c.d.prefixes[c.pick[0]], c.scanFn); err != nil {
			return err
		}
		if c.scanned != scanLen {
			return errShortScan
		}
		return nil
	}
	gets := c.pick[:]
	if c.w.view == viewHot {
		if err := c.read(tx, hotKey); err != nil {
			return err
		}
		gets = gets[1:]
	}
	for _, k := range gets {
		if err := c.read(tx, c.d.keys[k]); err != nil {
			return err
		}
	}
	return nil
}

func (c *client) read(tx txn, key string) error {
	v, err := tx.Get(key)
	if err != nil {
		return err
	}
	if len(v) != valueSize {
		return errBadValue
	}
	c.sink += counterOf(v)
	return nil
}

func (c *client) update(tx txn) error {
	rmw := c.pick[:2]
	if c.w.update == updHot {
		// Blind on purpose: Get-then-Put on a key both clients write is
		// an S-to-X upgrade deadlock, not a queue.
		if err := tx.Put(hotKey, newValue(c.hotSeq+1, uint64(c.id))); err != nil {
			return err
		}
		rmw = rmw[:1]
	}
	for _, k := range rmw {
		key := c.d.keys[k]
		v, err := tx.Get(key)
		if err != nil {
			return err
		}
		if len(v) != valueSize {
			return errBadValue
		}
		nv := make([]byte, valueSize)
		copy(nv, v)
		binary.LittleEndian.PutUint64(nv, counterOf(v)+1)
		if err := tx.Put(key, nv); err != nil {
			return err
		}
	}
	if c.fresh != "" {
		return tx.Put(c.fresh, newValue(1, uint64(c.id)))
	}
	return nil
}
