// Package trace is the workload-trace layer: it reads and writes the
// versioned JSONL trace format (arrival / load-change / departure
// records with per-dimension demand, Azure/Google-cluster-trace
// shaped — see FormatVersion) and replays a decoded trace against the
// simulated cluster through the same core.Loop notify path the
// synthetic generators use (StartReplay), so externally recorded
// workloads drive the identical machinery.
//
// It also renders experiment results: XY series as CSV and as ASCII
// scatter/line plots, and vjob allocation diagrams (Gantt) like
// Figure 12. Everything is plain text so the harness works in any
// terminal and the outputs diff cleanly.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one observation.
type Point struct{ X, Y float64 }

// Series is a named sequence of points.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Plot is a set of series with axis labels.
type Plot struct {
	Title, XLabel, YLabel string
	Series                []*Series
}

// NewPlot returns an empty plot.
func NewPlot(title, xlabel, ylabel string) *Plot {
	return &Plot{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates, attaches and returns a new series.
func (p *Plot) AddSeries(name string) *Series {
	s := &Series{Name: name}
	p.Series = append(p.Series, s)
	return s
}

// markers distinguish series in ASCII plots.
var markers = []byte{'+', 'x', 'o', '*', '#', '@'}

// Render draws the plot as an ASCII scatter chart of the given grid
// size (characters).
func (p *Plot) Render(width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	empty := true
	for _, s := range p.Series {
		for _, pt := range s.Points {
			empty = false
			minX, maxX = math.Min(minX, pt.X), math.Max(maxX, pt.X)
			minY, maxY = math.Min(minY, pt.Y), math.Max(maxY, pt.Y)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", p.Title)
	if empty {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range p.Series {
		m := markers[si%len(markers)]
		for _, pt := range s.Points {
			cx := int(math.Round((pt.X - minX) / (maxX - minX) * float64(width-1)))
			cy := int(math.Round((pt.Y - minY) / (maxY - minY) * float64(height-1)))
			row := height - 1 - cy
			grid[row][cx] = m
		}
	}
	fmt.Fprintf(&b, "%s max=%.4g\n", p.YLabel, maxY)
	for _, row := range grid {
		fmt.Fprintf(&b, "|%s\n", row)
	}
	fmt.Fprintf(&b, "+%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, " %s: %.4g .. %.4g   (%s min=%.4g)\n", p.XLabel, minX, maxX, p.YLabel, minY)
	for si, s := range p.Series {
		fmt.Fprintf(&b, " %c = %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// Gantt records execution intervals per row (vjob) and renders an
// allocation diagram like Figure 12, over the horizon of the latest
// interval end.
type Gantt struct {
	rows  map[string][][2]float64
	order []string
}

// NewGantt returns an empty diagram.
func NewGantt() *Gantt { return &Gantt{rows: make(map[string][][2]float64)} }

// Mark records that row was active on [from, to).
func (g *Gantt) Mark(row string, from, to float64) {
	if _, ok := g.rows[row]; !ok {
		g.order = append(g.order, row)
	}
	g.rows[row] = append(g.rows[row], [2]float64{from, to})
}

// Render draws the diagram, width characters across.
func (g *Gantt) Render(width int) string {
	if width < 10 {
		width = 10
	}
	end := 0.0
	for _, ivs := range g.rows {
		for _, iv := range ivs {
			if iv[1] > end {
				end = iv[1]
			}
		}
	}
	if end == 0 {
		return "(empty)\n"
	}
	var b strings.Builder
	names := append([]string(nil), g.order...)
	sort.Strings(names)
	for _, name := range names {
		row := []byte(strings.Repeat(".", width))
		for _, iv := range g.rows[name] {
			from := int(iv[0] / end * float64(width))
			to := int(iv[1] / end * float64(width))
			if to == from {
				to = from + 1
			}
			for i := from; i < to && i < width; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%-12s %s\n", name, row)
	}
	fmt.Fprintf(&b, "%-12s 0%s%.0fs\n", "", strings.Repeat(" ", width-len(fmt.Sprintf("%.0fs", end))), end)
	return b.String()
}
