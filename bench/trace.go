package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mvdb"
)

// The traced run times every call the client makes into the public API,
// from outside: nothing inside the program changes. Each transaction
// attempt is one parent span ("view" or "update") and each Begin, Get,
// Put, Scan and Commit a child of it.

type spanKind uint8

const (
	spView spanKind = iota
	spUpdate
	spViewBegin
	spViewRead
	spViewCommit
	spUpdateBegin
	spUpdateGet
	spUpdatePut
	spUpdateCommit
	numSpanKinds
)

// span is one recorded interval. Spans of one transaction attempt share
// Client and Txn; a child's parent is the attempt's view or update span.
type span struct {
	Client  uint8
	Kind    spanKind
	Txn     uint32
	StartNS int64 // since the tracer's epoch
	DurNS   int64
}

// maxSpans bounds the spans one client keeps. Totals cover every span;
// only the kept ones are written out, and the file says how many were
// not.
const maxSpans = 1 << 14

// tracer is one client's span store: per-kind totals over every span,
// and the spans of one attempt in keepEvery in full.
type tracer struct {
	client    uint8
	epoch     time.Time
	keepEvery uint32
	txn       uint32
	sumNS     [numSpanKinds]int64
	count     [numSpanKinds]int64
	spans     []span
	unkept    int64
}

func newTracer(client int, epoch time.Time, expectedSpans int) *tracer {
	return &tracer{
		client:    uint8(client),
		epoch:     epoch,
		keepEvery: uint32(expectedSpans/maxSpans + 1),
		spans:     make([]span, 0, maxSpans),
	}
}

func (t *tracer) record(k spanKind, start time.Time, d time.Duration) {
	t.sumNS[k] += d.Nanoseconds()
	t.count[k]++
	if t.txn%t.keepEvery == 0 && len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{t.client, k, t.txn, start.Sub(t.epoch).Nanoseconds(), d.Nanoseconds()})
	} else {
		t.unkept++
	}
}

// txnKinds names the spans of one transaction class.
type txnKinds struct{ parent, begin, read, put, commit spanKind }

var (
	viewKinds   = txnKinds{spView, spViewBegin, spViewRead, 0, spViewCommit}
	updateKinds = txnKinds{spUpdate, spUpdateBegin, spUpdateGet, spUpdatePut, spUpdateCommit}
)

// tracedTx times each call a transaction body makes.
type tracedTx struct {
	tx *mvdb.Tx
	tr *tracer
	k  txnKinds
}

func (t *tracedTx) Get(key string) ([]byte, error) {
	start := time.Now()
	v, err := t.tx.Get(key)
	t.tr.record(t.k.read, start, time.Since(start))
	return v, err
}

func (t *tracedTx) Put(key string, value []byte) error {
	start := time.Now()
	err := t.tx.Put(key, value)
	t.tr.record(t.k.put, start, time.Since(start))
	return err
}

func (t *tracedTx) Scan(prefix string, fn func(string, []byte) bool) error {
	start := time.Now()
	err := t.tx.Scan(prefix, fn)
	t.tr.record(t.k.read, start, time.Since(start))
	return err
}

// maxRetries is db.Update's default retry budget, which doTraced has to
// repeat because it drives Begin and Commit itself.
const maxRetries = 100

// doTraced is db.View or db.Update spelled out, with a span around each
// step.
func (c *client) doTraced(isView bool) error {
	tr, k := c.tr, updateKinds
	if isView {
		k = viewKinds
	}
	c.ttx.tr, c.ttx.k = tr, k
	var err error
	for attempt := 0; attempt < maxRetries; attempt++ {
		tr.txn++
		start := time.Now()
		var tx *mvdb.Tx
		if isView {
			tx, err = c.db.BeginReadOnly()
		} else {
			tx, err = c.db.Begin()
		}
		tr.record(k.begin, start, time.Since(start))
		if err != nil {
			return err
		}
		c.ttx.tx = tx
		if isView {
			err = c.view(&c.ttx)
		} else {
			err = c.update(&c.ttx)
		}
		if err != nil {
			tx.Abort()
		} else {
			commit := time.Now()
			err = tx.Commit()
			tr.record(k.commit, commit, time.Since(commit))
		}
		tr.record(k.parent, start, time.Since(start))
		if err == nil || isView || !mvdb.IsRetryable(err) {
			return err
		}
		c.retries++
	}
	return fmt.Errorf("bench: update retries exhausted: %w", err)
}

// spanTotals adds up the tracers' per-kind totals.
func spanTotals(trs []*tracer) (sumNS, count [numSpanKinds]int64) {
	for _, t := range trs {
		for k := range t.sumNS {
			sumNS[k] += t.sumNS[k]
			count[k] += t.count[k]
		}
	}
	return sumNS, count
}

// writeSpans writes the kept spans as one JSON document.
func writeSpans(path, workload string, trs []*tracer) error {
	type outSpan struct {
		Client  uint8  `json:"client"`
		Txn     uint32 `json:"txn"`
		Name    string `json:"name"`
		Parent  string `json:"parent,omitempty"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	doc := struct {
		Workload string    `json:"workload"`
		Unkept   int64     `json:"unkept_spans"`
		Spans    []outSpan `json:"spans"`
	}{Workload: workload}
	for _, t := range trs {
		doc.Unkept += t.unkept
		for _, s := range t.spans {
			o := outSpan{Client: s.Client, Txn: s.Txn, Name: spanNames[s.Kind], StartNS: s.StartNS, EndNS: s.StartNS + s.DurNS}
			switch {
			case s.Kind >= spUpdateBegin:
				o.Parent = spanNames[spUpdate]
			case s.Kind >= spViewBegin:
				o.Parent = spanNames[spView]
			}
			doc.Spans = append(doc.Spans, o)
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
