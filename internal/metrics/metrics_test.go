package metrics

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmptyHistogram(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
}

func TestBucketRoundTripMonotone(t *testing.T) {
	last := -1
	for v := int64(0); v < 1<<20; v = v*2 + 1 {
		b := bucketOf(v)
		if b < last {
			t.Fatalf("bucketOf not monotone at %d", v)
		}
		last = b
		if up := bucketUpper(b); up < v {
			t.Fatalf("bucketUpper(%d)=%d < value %d", b, up, v)
		}
	}
}

func TestPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	var vals []int64
	for i := 0; i < 10000; i++ {
		v := int64(rng.Intn(1_000_000))
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{50, 90, 99} {
		exact := vals[int(p/100*float64(len(vals)))-1]
		got := h.Percentile(p)
		// log-bucketed: within ~12.5% above the exact value
		if got < exact || float64(got) > float64(exact)*1.15+16 {
			t.Fatalf("p%v = %d, exact %d", p, got, exact)
		}
	}
	if h.Max() != vals[len(vals)-1] {
		t.Fatalf("max = %d, want %d", h.Max(), vals[len(vals)-1])
	}
}

func TestMeanAndCount(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{10, 20, 30} {
		h.Record(v)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 20 {
		t.Fatalf("mean = %v", h.Mean())
	}
	s := h.Summarize()
	if s.Count != 3 || s.TotalNanoseconds != 60 {
		t.Fatalf("summary = %+v", s)
	}
	if !strings.Contains(s.String(), "n=3") {
		t.Fatalf("summary string: %q", s.String())
	}
}

func TestConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Record(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestPropertyPercentileNeverBelowMedianSample(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		var vals []int64
		for _, r := range raw {
			v := int64(r % 1_000_000)
			vals = append(vals, v)
			h.Record(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		med := vals[(len(vals)-1)/2]
		return h.Percentile(50) >= med || med == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDur(t *testing.T) {
	tests := []struct {
		ns   int64
		want string
	}{
		{500, "500ns"},
		{1500, "1.50µs"},
		{2_500_000, "2.50ms"},
		{3_000_000_000, "3.00s"},
	}
	for _, tc := range tests {
		if got := Dur(tc.ns); got != tc.want {
			t.Errorf("Dur(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "demo", Headers: []string{"engine", "tps"}}
	tb.AddRow("vc+2pl", "123")
	tb.AddRow("sv2pl", "45")
	out := tb.String()
	for _, want := range []string{"== demo ==", "engine", "vc+2pl", "45"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestBucketClampAtMaxOctave(t *testing.T) {
	h := NewHistogram()
	h.Record(1 << 62) // far beyond the covered range: must clamp, not panic
	if h.Count() != 1 {
		t.Fatal("sample lost")
	}
	if h.Percentile(100) <= 0 {
		t.Fatal("clamped percentile broken")
	}
}

func TestRecordNegativeClampsToZero(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if got := h.Percentile(100); got != 0 {
		t.Fatalf("p100 = %d, want 0", got)
	}
}

func TestPercentileClamps(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 100; v++ {
		h.Record(v * 1000)
	}
	if got, min := h.Percentile(-5), h.Percentile(0.0001); got != min {
		t.Errorf("p<=0 should clamp to the smallest sample: %d vs %d", got, min)
	}
	if got, max := h.Percentile(200), h.Percentile(100); got != max {
		t.Errorf("p>100 should clamp to the largest sample: %d vs %d", got, max)
	}
	if h.Percentile(100) < 100000 {
		t.Errorf("p100 = %d, want >= 100000", h.Percentile(100))
	}
	// Nearest-rank: p50 of 100 samples is the 50th sample (50000), not
	// the 51st bucket boundary's neighborhood above it by a full step.
	if p50 := h.Percentile(50); p50 < 50000 || p50 > 50000*1.07 {
		t.Errorf("p50 = %d, want ~50000 (nearest-rank, <=7%% bucket error)", p50)
	}
}

func TestQuantilesMatchPercentile(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		h.Record(rng.Int63n(10_000_000))
	}
	ps := []float64{99, 1, 50, 90, 25, 99.9, 0, 150} // deliberately unsorted, with clamps
	qs := h.Quantiles(ps)
	if len(qs) != len(ps) {
		t.Fatalf("Quantiles returned %d values for %d percentiles", len(qs), len(ps))
	}
	for i, p := range ps {
		if want := h.Percentile(p); qs[i] != want {
			t.Errorf("Quantiles[%d] (p=%v) = %d, want Percentile = %d", i, p, qs[i], want)
		}
	}
}

func TestQuantilesEmpty(t *testing.T) {
	h := NewHistogram()
	qs := h.Quantiles([]float64{50, 99})
	if qs[0] != 0 || qs[1] != 0 {
		t.Fatalf("empty histogram quantiles = %v", qs)
	}
	if got := h.Quantiles(nil); len(got) != 0 {
		t.Fatalf("nil percentiles should yield empty result, got %v", got)
	}
}

func TestSummaryJSON(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Record(v * 1000)
	}
	b, err := json.Marshal(h.Summarize())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"count", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns", "total_ns", "human"} {
		if _, ok := m[key]; !ok {
			t.Errorf("summary JSON missing %q: %s", key, b)
		}
	}
	if m["count"].(float64) != 1000 {
		t.Errorf("count = %v", m["count"])
	}
	if !strings.Contains(m["human"].(string), "n=1000") {
		t.Errorf("human = %v", m["human"])
	}
}

func TestTableJSON(t *testing.T) {
	tb := Table{Title: "t", Headers: []string{"a", "b"}}
	tb.AddRow("1", "2")
	b, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"title":"t","headers":["a","b"],"rows":[["1","2"]]}`
	if string(b) != want {
		t.Fatalf("table JSON = %s, want %s", b, want)
	}
}
