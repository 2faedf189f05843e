package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSamplerDeterminism pins the reproducibility contract: two tracers
// built with the same seed and rate make identical head-sampling
// decisions for identical Start sequences, and identical tail-retention
// decisions for identical (protocol, total, outcome) sequences. A
// support engineer replaying a workload with the seed from a bug report
// must get the same traces.
func TestSamplerDeterminism(t *testing.T) {
	mk := func() *Tracer {
		return New(Options{Sample: 0.37, Seed: 12345, SlowNS: 80})
	}
	a, b := mk(), mk()
	var sampledA, sampledB []bool
	for tx := uint64(1); tx <= 500; tx++ {
		actA := a.Start(tx, "vc+2pl")
		actB := b.Start(tx, "vc+2pl")
		sampledA = append(sampledA, actA != nil)
		sampledB = append(sampledB, actB != nil)
		actA.FinishCommit()
		actB.FinishCommit()
	}
	some := false
	for i := range sampledA {
		if sampledA[i] != sampledB[i] {
			t.Fatalf("Start decision %d diverged: %v vs %v", i, sampledA[i], sampledB[i])
		}
		some = some || sampledA[i]
	}
	if !some {
		t.Fatal("rate 0.37 sampled nothing in 500 draws")
	}

	// Tail retention is a pure function of the decision sequence.
	c, d := mk(), mk()
	totals := []int64{10, 20, 90, 15, 200, 30, 12, 85, 40, 400}
	for i, total := range totals {
		outcome := "commit"
		if i%4 == 3 {
			outcome = "abort"
		}
		got, want := c.Decide("vc+occ", total, outcome), d.Decide("vc+occ", total, outcome)
		if got != want {
			t.Fatalf("decide(%d, %s) diverged: %q vs %q", total, outcome, got, want)
		}
	}
	if r := c.Decide("vc+occ", 5, "abort"); r != PromotedAborted {
		t.Fatalf("aborted trace decided %q, want %q", r, PromotedAborted)
	}
	if r := c.Decide("vc+occ", 90, "commit"); r != PromotedSlow {
		t.Fatalf("slow trace (past SlowNS floor) decided %q, want %q", r, PromotedSlow)
	}
	if r := c.Decide("vc+occ", 5, "commit"); r != "" {
		t.Fatalf("fast trace decided %q, want unpromoted", r)
	}
}

// TestSampleRateZeroAndOne pin the cut endpoints: 1.0 samples every
// transaction, 0 (on a live tracer) samples none.
func TestSampleRateZeroAndOne(t *testing.T) {
	all := New(Options{Sample: 1})
	none := New(Options{})
	for tx := uint64(1); tx <= 64; tx++ {
		if all.Start(tx, "p") == nil {
			t.Fatalf("sample 1.0 skipped tx %d", tx)
		}
		if none.Start(tx, "p") != nil {
			t.Fatalf("sample 0 traced tx %d", tx)
		}
	}
	st := all.Stats()
	if st.Started != 64 || st.Sampled != 64 {
		t.Fatalf("stats = %+v, want 64/64", st)
	}
	if st := none.Stats(); st.Sampled != 0 {
		t.Fatalf("sample 0 reported %d sampled", st.Sampled)
	}
}

// TestNilSafety drives every method through nil receivers: the disabled
// path must be inert, not crash.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	a := tr.Start(1, "p")
	if a != nil {
		t.Fatal("nil tracer sampled")
	}
	a.Span("x", time.Now(), time.Millisecond)
	a.SpanSite("x", 2, time.Now())
	a.SpanAt("x", -1, 0, 0)
	a.Blame(Blame{Kind: BlameBlockedOn})
	a.CommitTN(7)
	a.FinishCommit()
	a.FinishAbort()
	if a.ID() != 0 {
		t.Fatal("nil Active has an ID")
	}
	tr.OnLockWait(1, "k", 0, 2, time.Millisecond)
	tr.OnVisible(7, time.Millisecond)
	if tr.PromoteRecent("x", 3) != 0 {
		t.Fatal("nil tracer promoted")
	}
	if tr.Promoted() != nil || tr.Recent() != nil {
		t.Fatal("nil tracer returned traces")
	}
	if tr.Stats() != (Stats{}) {
		t.Fatal("nil tracer returned stats")
	}
}

// TestLifecyclePromotionAndExport walks one sampled transaction through
// the full pipeline: spans, all three blame kinds, commit-visible
// finalization, slow-promotion and ring export.
func TestLifecyclePromotionAndExport(t *testing.T) {
	tr := New(Options{Sample: 1, SlowNS: 1})
	a := tr.Start(42, "vc+2pl")
	if a == nil {
		t.Fatal("sample 1.0 returned nil")
	}
	base := time.Now()
	a.SpanAt("lock-wait", -1, base.UnixNano(), int64(time.Millisecond))
	a.Blame(Blame{Kind: BlameBlockedOn, Phase: "lock-wait", Tx: 7, Key: "hot", Stripe: 3, DurNS: int64(time.Millisecond)})
	a.SpanAt("fsync-wait", -1, base.UnixNano()+int64(time.Millisecond), int64(2*time.Millisecond))
	a.Blame(Blame{Kind: BlameJoinedBatch, Phase: "fsync-wait", Tx: 9, Batch: 4, Records: 12, DurNS: int64(2 * time.Millisecond)})
	a.CommitTN(9001)
	a.Blame(Blame{Kind: BlameQueuedBehind, Phase: "visible-wait", Tx: 9000, Depth: 2})
	tr.OnVisible(9001, 3*time.Millisecond)

	// Finalized via the visibility callback: promoted as slow.
	prom := tr.Promoted()
	if len(prom) != 1 {
		t.Fatalf("promoted = %d traces, want 1", len(prom))
	}
	got := prom[0]
	if got.Tx != 42 || got.TN != 9001 || got.Proto != "vc+2pl" {
		t.Fatalf("identity wrong: %+v", got)
	}
	if got.Outcome != "commit" || got.Promoted != PromotedSlow {
		t.Fatalf("outcome/promotion wrong: %q/%q", got.Outcome, got.Promoted)
	}
	if got.VisibleNS == 0 || got.TotalNS <= 0 {
		t.Fatalf("visibility timing missing: %+v", got)
	}
	// visible-wait span appended by OnVisible.
	names := map[string]bool{}
	for _, s := range got.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"lock-wait", "fsync-wait", "visible-wait"} {
		if !names[want] {
			t.Fatalf("span %q missing: %v", want, got.Spans)
		}
	}
	kinds := map[string]bool{}
	for _, b := range got.Blames {
		kinds[b.Kind] = true
	}
	for _, want := range []string{BlameBlockedOn, BlameJoinedBatch, BlameQueuedBehind} {
		if !kinds[want] {
			t.Fatalf("blame %q missing: %v", want, got.Blames)
		}
	}
	// A second finalize must be a no-op (idempotence).
	a.FinishAbort()
	if st := tr.Stats(); st.Finished != 1 || st.Promoted != 1 {
		t.Fatalf("double finalize changed stats: %+v", st)
	}

	// Chrome round trip preserves the trace.
	data, err := EncodeChrome(prom)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChrome(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("decoded %d traces, want 1", len(back))
	}
	b0 := back[0]
	if b0.ID != got.ID || b0.Tx != got.Tx || b0.TN != got.TN || b0.Proto != got.Proto ||
		b0.Outcome != got.Outcome || b0.Promoted != got.Promoted ||
		b0.StartNS != got.StartNS || b0.TotalNS != got.TotalNS {
		t.Fatalf("chrome round trip mutated header:\n got %+v\nwant %+v", b0, got)
	}
	if len(b0.Spans) != len(got.Spans) || len(b0.Blames) != len(got.Blames) {
		t.Fatalf("chrome round trip lost children: %d/%d spans, %d/%d blames",
			len(b0.Spans), len(got.Spans), len(b0.Blames), len(got.Blames))
	}
	for _, b := range b0.Blames {
		if !kinds[b.Kind] {
			t.Fatalf("decoded unknown blame kind %q", b.Kind)
		}
	}
}

// TestPromoteRecent pins flagged retention: the newest unpromoted
// traces move to the promoted ring tagged with the reason.
func TestPromoteRecent(t *testing.T) {
	tr := New(Options{Sample: 1})
	for tx := uint64(1); tx <= 5; tx++ {
		tr.Start(tx, "p").FinishCommit()
	}
	if n := len(tr.Promoted()); n != 0 {
		t.Fatalf("fast traces promoted early: %d", n)
	}
	if moved := tr.PromoteRecent("audit-cycle", 2); moved != 2 {
		t.Fatalf("PromoteRecent moved %d, want 2", moved)
	}
	prom := tr.Promoted()
	if len(prom) != 2 {
		t.Fatalf("promoted ring has %d, want 2", len(prom))
	}
	// Newest first were taken: txs 5 and 4 (ring order is push order).
	if prom[0].Tx != 5 || prom[1].Tx != 4 {
		t.Fatalf("wrong traces flagged: %d, %d (want 5, 4)", prom[0].Tx, prom[1].Tx)
	}
	for _, p := range prom {
		if p.Promoted != "flagged:audit-cycle" {
			t.Fatalf("tag = %q", p.Promoted)
		}
	}
	if n := len(tr.Recent()); n != 3 {
		t.Fatalf("recent ring has %d, want 3", n)
	}
	// Flagging an empty tracer is a no-op, not a panic (regression:
	// uint64 ring-index underflow when recentN < i).
	empty := New(Options{Sample: 1})
	if moved := empty.PromoteRecent("x", 4); moved != 0 {
		t.Fatalf("empty PromoteRecent moved %d", moved)
	}
}

// TestDropAccounting checks every bounded buffer counts what it sheds:
// the promoted ring under an abort storm, the span cap within one
// trace, and — under -race — that concurrent finalization, flagging and
// export keep the books consistent.
func TestDropAccounting(t *testing.T) {
	tr := New(Options{Sample: 1, Recent: 8, Promoted: 4, MaxSpans: 8})

	// Span overflow within one trace.
	a := tr.Start(1, "p")
	for i := 0; i < 13; i++ {
		a.SpanAt("s", -1, int64(i), 1)
	}
	a.FinishAbort()
	if prom := tr.Promoted(); len(prom) != 1 || prom[0].DroppedSpans != 5 {
		t.Fatalf("span overflow: %+v", prom)
	}
	if st := tr.Stats(); st.DroppedSpans != 5 {
		t.Fatalf("dropped spans = %d, want 5", st.DroppedSpans)
	}

	// Abort storm from many goroutines: every trace promotes, the ring
	// keeps 4, the rest are counted drops. Concurrent readers and
	// flaggers race the writers (the -race payoff).
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a := tr.Start(uint64(1000+w*each+i), "p")
				a.SpanAt("s", -1, 0, 1)
				a.FinishAbort()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			tr.Promoted()
			tr.Recent()
			tr.PromoteRecent("probe", 1)
			tr.Stats()
		}
	}()
	wg.Wait()

	st := tr.Stats()
	wantFinished := uint64(1 + writers*each)
	if st.Finished != wantFinished {
		t.Fatalf("finished = %d, want %d", st.Finished, wantFinished)
	}
	if st.Promoted != wantFinished {
		t.Fatalf("promoted = %d, want %d (aborts always promote)", st.Promoted, wantFinished)
	}
	if st.DroppedPromoted != wantFinished-4 {
		t.Fatalf("dropped promoted = %d, want %d", st.DroppedPromoted, wantFinished-4)
	}
	if got := len(tr.Promoted()); got != 4 {
		t.Fatalf("promoted ring kept %d, want 4", got)
	}
}

// TestRecentRingEviction: unpromoted traces cycle through the bounded
// recent ring, counting evictions.
func TestRecentRingEviction(t *testing.T) {
	tr := New(Options{Sample: 1, Recent: 4})
	for tx := uint64(1); tx <= 10; tx++ {
		tr.Start(tx, "p").FinishCommit()
	}
	rec := tr.Recent()
	if len(rec) != 4 {
		t.Fatalf("recent = %d traces, want 4", len(rec))
	}
	// Oldest first: 7, 8, 9, 10 survive.
	for i, want := range []uint64{7, 8, 9, 10} {
		if rec[i].Tx != want {
			t.Fatalf("recent[%d].Tx = %d, want %d", i, rec[i].Tx, want)
		}
	}
	if st := tr.Stats(); st.DroppedRecent != 6 {
		t.Fatalf("dropped recent = %d, want 6", st.DroppedRecent)
	}
}

// TestBlameString pins the waterfall vocabulary.
func TestBlameString(t *testing.T) {
	cases := []struct {
		b    Blame
		want string
	}{
		{Blame{Kind: BlameBlockedOn, Tx: 7, Key: "hot", Stripe: 3}, `blocked-on tx 7 key "hot" stripe 3`},
		{Blame{Kind: BlameJoinedBatch, Batch: 4, Tx: 9, Records: 12}, "joined-batch 4 leader-tn 9 records 12"},
		{Blame{Kind: BlameQueuedBehind, Tx: 9000, Depth: 2}, "queued-behind tn 9000 depth 2"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Fatalf("Blame.String() = %q, want %q", got, c.want)
		}
	}
}

// TestWaterfallRendering smoke-tests the ASCII renderer: every span
// name, blame edge and the trace header appear.
func TestWaterfallRendering(t *testing.T) {
	tr := Trace{
		ID: 0xabc, Tx: 42, TN: 9001, Proto: "vc+2pl", Outcome: "commit",
		Promoted: PromotedSlow, StartNS: 1000, EndNS: 5000, TotalNS: 4000,
		Spans: []Span{
			{Name: "lock-wait", Site: -1, StartNS: 1000, DurNS: 1500},
			{Name: "prepare", Site: 2, StartNS: 2500, DurNS: 500},
		},
		Blames: []Blame{
			{Kind: BlameBlockedOn, Phase: "lock-wait", Tx: 7, Key: "hot", Stripe: 3},
			{Kind: BlameQueuedBehind, Phase: "visible-wait", Tx: 9000, Depth: 2},
		},
	}
	var sb strings.Builder
	Waterfall(&sb, tr)
	out := sb.String()
	for _, want := range []string{
		"0000000000000abc", "vc+2pl", "tx=42", "lock-wait", "prepare",
		`blocked-on tx 7 key "hot" stripe 3`, "queued-behind tn 9000 depth 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
}

// TestDumpJSONRoundTrip: the /debug/mvdb/traces document round-trips
// through encoding/json (mvinspect decodes it with the same types).
func TestDumpJSONRoundTrip(t *testing.T) {
	tr := New(Options{Sample: 1, SlowNS: 1})
	a := tr.Start(1, "p")
	a.SpanAt("install", -1, 10, 20)
	a.Blame(Blame{Kind: BlameQueuedBehind, Phase: "visible-wait", Tx: 5, Depth: 1})
	a.CommitTN(6)
	tr.OnVisible(6, time.Microsecond)

	d := Dump{Stats: tr.Stats(), Promoted: tr.Promoted(), Recent: tr.Recent()}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Dump
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Promoted) != 1 || back.Promoted[0].TN != 6 || len(back.Promoted[0].Blames) != 1 {
		t.Fatalf("dump round trip: %+v", back)
	}
	if back.Stats != d.Stats {
		t.Fatalf("stats round trip: %+v vs %+v", back.Stats, d.Stats)
	}
}
