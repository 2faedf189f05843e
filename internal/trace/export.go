package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
)

// ChromeSchema identifies the export format; it rides in the document
// so decoders can reject incompatible files.
const ChromeSchema = "mvdb-trace/v1"

// Dump is the /debug/mvdb/traces payload: tracer counters plus the
// promoted and recent stores. mvinspect -trace decodes this.
type Dump struct {
	Stats    Stats   `json:"stats"`
	Promoted []Trace `json:"promoted"`
	Recent   []Trace `json:"recent"`
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// ts/dur are microseconds; exact nanosecond values ride in Args as
// decimal strings because unix-nano timestamps exceed JSON's exact
// integer range.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	Schema          string        `json:"schema"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Events          []chromeEvent `json:"traceEvents"`
}

func ns(v int64) string { return strconv.FormatInt(v, 10) }

func parseNS(args map[string]any, key string) int64 {
	s, _ := args[key].(string)
	v, _ := strconv.ParseInt(s, 10, 64)
	return v
}

func parseU64(args map[string]any, key string) uint64 {
	switch v := args[key].(type) {
	case string:
		u, _ := strconv.ParseUint(v, 16, 64)
		return u
	case float64:
		return uint64(v)
	}
	return 0
}

func parseInt(args map[string]any, key string) int {
	v, _ := args[key].(float64)
	return int(v)
}

func parseNum(args map[string]any, key string) uint64 {
	v, _ := args[key].(float64)
	return uint64(v)
}

func parseStr(args map[string]any, key string) string {
	s, _ := args[key].(string)
	return s
}

// EncodeChrome renders traces as a chrome://tracing- and Perfetto-
// loadable document. Each trace becomes one tid; the transaction root
// is a complete ("X") event named tx/<proto>, spans are complete events
// in cat "phase", and blame edges are instant ("i") events in cat
// "blame". Timestamps are shifted so the earliest trace starts at 0.
func EncodeChrome(traces []Trace) ([]byte, error) {
	var base int64
	for i, tr := range traces {
		if i == 0 || tr.StartNS < base {
			base = tr.StartNS
		}
	}
	doc := chromeDoc{Schema: ChromeSchema, DisplayTimeUnit: "ms"}
	us := func(nsv int64) float64 { return float64(nsv-base) / 1e3 }
	for i, tr := range traces {
		tid := i + 1
		doc.Events = append(doc.Events, chromeEvent{
			Name: "tx/" + tr.Proto,
			Cat:  "tx",
			Ph:   "X",
			TS:   us(tr.StartNS),
			Dur:  float64(tr.TotalNS) / 1e3,
			PID:  tr.Site + 1,
			TID:  tid,
			Args: map[string]any{
				"id":            fmt.Sprintf("%016x", tr.ID),
				"site":          tr.Site,
				"tx":            tr.Tx,
				"tn":            tr.TN,
				"proto":         tr.Proto,
				"outcome":       tr.Outcome,
				"promoted":      tr.Promoted,
				"start_ns":      ns(tr.StartNS),
				"end_ns":        ns(tr.EndNS),
				"visible_ns":    ns(tr.VisibleNS),
				"total_ns":      ns(tr.TotalNS),
				"dropped_spans": tr.DroppedSpans,
			},
		})
		for _, sp := range tr.Spans {
			doc.Events = append(doc.Events, chromeEvent{
				Name: sp.Name,
				Cat:  "phase",
				Ph:   "X",
				TS:   us(sp.StartNS),
				Dur:  float64(sp.DurNS) / 1e3,
				PID:  tr.Site + 1,
				TID:  tid,
				Args: map[string]any{
					"site":     sp.Site,
					"start_ns": ns(sp.StartNS),
					"dur_ns":   ns(sp.DurNS),
				},
			})
		}
		for _, b := range tr.Blames {
			doc.Events = append(doc.Events, chromeEvent{
				Name: b.Kind,
				Cat:  "blame",
				Ph:   "i",
				TS:   us(tr.StartNS),
				PID:  tr.Site + 1,
				TID:  tid,
				S:    "t",
				Args: map[string]any{
					"phase":   b.Phase,
					"tx":      b.Tx,
					"key":     b.Key,
					"stripe":  b.Stripe,
					"batch":   b.Batch,
					"records": b.Records,
					"depth":   b.Depth,
					"dur_ns":  ns(b.DurNS),
				},
			})
		}
	}
	return json.MarshalIndent(doc, "", " ")
}

// DecodeChrome is EncodeChrome's inverse: it reconstructs the traces
// from the exact-nanosecond args, ignoring the lossy ts/dur fields.
func DecodeChrome(data []byte) ([]Trace, error) {
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	if doc.Schema != ChromeSchema {
		return nil, fmt.Errorf("trace: schema %q, want %q", doc.Schema, ChromeSchema)
	}
	byTID := make(map[int]*Trace)
	var order []int
	for _, ev := range doc.Events {
		switch ev.Cat {
		case "tx":
			tr := &Trace{
				ID:           parseU64(ev.Args, "id"),
				Site:         parseInt(ev.Args, "site"),
				Tx:           parseNum(ev.Args, "tx"),
				TN:           parseNum(ev.Args, "tn"),
				Proto:        parseStr(ev.Args, "proto"),
				Outcome:      parseStr(ev.Args, "outcome"),
				Promoted:     parseStr(ev.Args, "promoted"),
				StartNS:      parseNS(ev.Args, "start_ns"),
				EndNS:        parseNS(ev.Args, "end_ns"),
				VisibleNS:    parseNS(ev.Args, "visible_ns"),
				TotalNS:      parseNS(ev.Args, "total_ns"),
				DroppedSpans: parseInt(ev.Args, "dropped_spans"),
			}
			byTID[ev.TID] = tr
			order = append(order, ev.TID)
		case "phase":
			tr := byTID[ev.TID]
			if tr == nil {
				return nil, fmt.Errorf("trace: span before tx root (tid %d)", ev.TID)
			}
			tr.Spans = append(tr.Spans, Span{
				Name:    ev.Name,
				Site:    parseInt(ev.Args, "site"),
				StartNS: parseNS(ev.Args, "start_ns"),
				DurNS:   parseNS(ev.Args, "dur_ns"),
			})
		case "blame":
			tr := byTID[ev.TID]
			if tr == nil {
				return nil, fmt.Errorf("trace: blame before tx root (tid %d)", ev.TID)
			}
			tr.Blames = append(tr.Blames, Blame{
				Kind:    ev.Name,
				Phase:   parseStr(ev.Args, "phase"),
				Tx:      parseNum(ev.Args, "tx"),
				Key:     parseStr(ev.Args, "key"),
				Stripe:  parseInt(ev.Args, "stripe"),
				Batch:   parseNum(ev.Args, "batch"),
				Records: parseInt(ev.Args, "records"),
				Depth:   parseInt(ev.Args, "depth"),
				DurNS:   parseNS(ev.Args, "dur_ns"),
			})
		}
	}
	out := make([]Trace, 0, len(order))
	for _, tid := range order {
		out = append(out, *byTID[tid])
	}
	return out, nil
}

// HTTPHandler serves the tracer's stores. GET returns a Dump as JSON;
// ?format=chrome returns the promoted traces as a Chrome trace-event
// document, directly loadable in chrome://tracing or Perfetto.
func (t *Tracer) HTTPHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "chrome" {
			data, err := EncodeChrome(t.Promoted())
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="mvdb-trace.json"`)
			w.Write(data)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(Dump{Stats: t.Stats(), Promoted: t.Promoted(), Recent: t.Recent()})
	})
}

// sortSpans orders spans for rendering: by start, then longer first.
func sortSpans(spans []Span) []Span {
	out := append([]Span(nil), spans...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].DurNS > out[j].DurNS
	})
	return out
}
