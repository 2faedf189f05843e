package health

import "fmt"

// Alarm severities. A page is actionable now (the fast burn window is
// saturated while the objective is being violated); a warn is a
// smoldering breach the slow window accumulated.
const (
	SeverityWarn = "warn"
	SeverityPage = "page"
)

// SLO is one declarative objective over a Point metric: the metric
// must stay <= Max. It is evaluated with two burn-rate windows over
// the level-0 timeline, the multi-window pattern from SRE practice —
// a short window that pages quickly on an acute breach but resets as
// fast, and a long window that catches sustained low-grade erosion
// without paging on a blip.
type SLO struct {
	// Name identifies the objective in alarms, events, and metrics
	// (e.g. "commit-p99").
	Name string `json:"name"`
	// Metric is the Point metric the objective bounds (a MetricNames
	// entry).
	Metric string `json:"metric"`
	// Max is the objective's ceiling, in the metric's own unit.
	Max float64 `json:"max"`
	// FastWindow and SlowWindow are window lengths in level-0 points
	// (defaults 12 and 60). Breach fractions are computed over the full
	// window length even before that many points exist, so a fresh
	// monitor cannot page off a single sample.
	FastWindow int `json:"fast_window"`
	SlowWindow int `json:"slow_window"`
	// FastBurn and SlowBurn are the breach fractions that trip each
	// window (defaults 0.5 and 0.2).
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
}

// Alarm is one raised breach. Value is the current point's metric
// reading; Breaches the number of breaching points in the fast window.
type Alarm struct {
	AtNS      int64   `json:"at_ns"`
	SLO       string  `json:"slo"`
	Metric    string  `json:"metric"`
	Severity  string  `json:"severity"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	BurnFast  float64 `json:"burn_fast"`
	BurnSlow  float64 `json:"burn_slow"`
	Breaches  int64   `json:"breaches"`
	Message   string  `json:"message"`
}

// sloStateLevel orders severities for hysteresis.
const (
	stateOK = iota
	stateWarn
	statePage
)

var stateNames = [...]string{"ok", "warn", "page"}

// sloState is one SLO's evaluation state: a bounded breach-history
// ring (one bool per level-0 point) plus the hysteresis level — an
// alarm fires only on escalation, so a saturated window alarms once,
// not once per tick.
type sloState struct {
	cfg      SLO
	history  []bool // breach flags, ring of SlowWindow entries
	head     int
	n        int
	level    int
	burnFast float64
	burnSlow float64
}

func newSLOState(cfg SLO) (sloState, error) {
	if cfg.Name == "" {
		return sloState{}, fmt.Errorf("health: SLO needs a name")
	}
	if _, ok := (Point{}).Metric(cfg.Metric); !ok {
		return sloState{}, fmt.Errorf("health: SLO %s: unknown metric %q", cfg.Name, cfg.Metric)
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = 12
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = 60
	}
	if cfg.SlowWindow < cfg.FastWindow {
		cfg.SlowWindow = cfg.FastWindow
	}
	if cfg.FastBurn <= 0 {
		cfg.FastBurn = 0.5
	}
	if cfg.SlowBurn <= 0 {
		cfg.SlowBurn = 0.2
	}
	return sloState{cfg: cfg, history: make([]bool, cfg.SlowWindow)}, nil
}

// observe records one point's breach flag and recomputes both burn
// fractions (breaching points / full window length).
func (s *sloState) observe(breach bool) {
	s.history[s.head] = breach
	s.head = (s.head + 1) % len(s.history)
	if s.n < len(s.history) {
		s.n++
	}
	fast, slow := 0, 0
	for i := 1; i <= s.n; i++ {
		if !s.history[(s.head-i+len(s.history))%len(s.history)] {
			continue
		}
		slow++
		if i <= s.cfg.FastWindow {
			fast++
		}
	}
	s.burnFast = float64(fast) / float64(s.cfg.FastWindow)
	s.burnSlow = float64(slow) / float64(s.cfg.SlowWindow)
}

// fastBreaches counts breaching points currently in the fast window.
func (s *sloState) fastBreaches() int64 {
	return int64(s.burnFast*float64(s.cfg.FastWindow) + 0.5)
}

// evaluateSLOs folds the new point into every SLO's windows and
// returns the alarms raised by escalations. Caller holds m.mu.
func (m *Monitor) evaluateSLOs(p Point) []Alarm {
	var alarms []Alarm
	for i := range m.slos {
		s := &m.slos[i]
		v, _ := p.Metric(s.cfg.Metric)
		breach := v > s.cfg.Max
		s.observe(breach)

		next := stateOK
		switch {
		case breach && s.burnFast >= s.cfg.FastBurn:
			next = statePage
		case s.burnSlow >= s.cfg.SlowBurn:
			next = stateWarn
		}
		if next > s.level {
			sev := SeverityWarn
			if next == statePage {
				sev = SeverityPage
			}
			alarms = append(alarms, Alarm{
				AtNS:      p.AtNS,
				SLO:       s.cfg.Name,
				Metric:    s.cfg.Metric,
				Severity:  sev,
				Value:     v,
				Threshold: s.cfg.Max,
				BurnFast:  s.burnFast,
				BurnSlow:  s.burnSlow,
				Breaches:  s.fastBreaches(),
				Message: fmt.Sprintf("%s: %s=%g exceeds %g (fast burn %.2f, slow burn %.2f)",
					s.cfg.Name, s.cfg.Metric, v, s.cfg.Max, s.burnFast, s.burnSlow),
			})
		}
		s.level = next
	}
	return alarms
}

// SLOState is one objective's externally visible evaluation state.
type SLOState struct {
	SLO      SLO     `json:"slo"`
	State    string  `json:"state"` // "ok", "warn", "page"
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
}

// SLOStates reports every objective's current state. Nil-safe.
func (m *Monitor) SLOStates() []SLOState {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SLOState, len(m.slos))
	for i := range m.slos {
		s := &m.slos[i]
		out[i] = SLOState{SLO: s.cfg, State: stateNames[s.level], BurnFast: s.burnFast, BurnSlow: s.burnSlow}
	}
	return out
}
