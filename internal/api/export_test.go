package api

import (
	"net/http"
	"time"
)

// What the daemon-backed tests of package api_test reach beyond the
// exported surface: the bodies they decode, the body bound, the watch
// streams' pace and drop counter, the metric registry and the state
// handler without a connection.
type (
	NodeJSON       = nodeJSON
	PlanJSON       = planJSON
	StatsJSON      = statsJSON
	ViolationsJSON = violationsJSON
	NodesDelta     = nodesDelta
)

const MaxBodyBytes = maxBodyBytes

var ParseLabelBlock = parseLabelBlock

// SetWatchPace overrides the heartbeat, the state poll interval and
// the state buffer; zero keeps a default.
func (s *Server) SetWatchPace(heartbeat, stateInterval time.Duration, stateBuffer int) {
	s.heartbeat, s.stateInterval, s.stateBuffer = heartbeat, stateInterval, stateBuffer
}

func (s *Server) StateDrops() uint64 { return s.stateDrops.Load() }

func (s *Server) HandleWatchState(w http.ResponseWriter, r *http.Request) {
	s.handleWatchState(w, r)
}

// MetricFamily is one registry entry: its headers and the rendered
// label set of each sample.
type MetricFamily struct {
	Name, Help, Type string
	Series           []string
}

func (s *Server) MetricFamilies() []MetricFamily {
	var out []MetricFamily
	for _, f := range s.metricFamilies() {
		m := MetricFamily{Name: f.name, Help: f.help, Type: f.typ}
		for _, smp := range f.samples {
			m.Series = append(m.Series, smp.labels)
		}
		out = append(out, m)
	}
	return out
}
