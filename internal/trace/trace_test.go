package trace

import (
	"strings"
	"testing"
)

func TestPlotRender(t *testing.T) {
	p := NewPlot("costs", "vms", "cost")
	a := p.AddSeries("ffd")
	b := p.AddSeries("entropy")
	for i := 0; i < 10; i++ {
		a.Add(float64(i), float64(i*i))
		b.Add(float64(i), float64(i))
	}
	out := p.Render(40, 10)
	for _, want := range []string{"costs", "ffd", "entropy", "+", "x", "vms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPlotEmpty(t *testing.T) {
	p := NewPlot("empty", "x", "y")
	p.AddSeries("nothing")
	if !strings.Contains(p.Render(20, 8), "(no data)") {
		t.Fatal("empty plot should say so")
	}
}

func TestPlotDegenerate(t *testing.T) {
	p := NewPlot("flat", "x", "y")
	s := p.AddSeries("s")
	s.Add(1, 5)
	s.Add(1, 5)           // single distinct point: ranges are zero
	out := p.Render(5, 3) // also exercises minimum size clamping
	if out == "" {
		t.Fatal("degenerate plot crashed")
	}
}

func TestGantt(t *testing.T) {
	g := NewGantt()
	g.Mark("job1", 0, 50)
	g.Mark("job2", 50, 100)
	g.Mark("job1", 80, 100) // resumed later
	out := g.Render(20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[0], "job1") || !strings.HasPrefix(lines[1], "job2") {
		t.Fatalf("row order: %v", lines)
	}
	// job1 active in first half and the tail.
	row1 := lines[0][13:]
	if row1[0] != '#' || row1[19] != '#' {
		t.Fatalf("job1 row = %q", row1)
	}
	if row1[12] != '.' {
		t.Fatalf("job1 gap missing: %q", row1)
	}
}

func TestGanttEmpty(t *testing.T) {
	if NewGantt().Render(30) != "(empty)\n" {
		t.Fatal("empty gantt")
	}
}

func TestGanttTinyInterval(t *testing.T) {
	g := NewGantt()
	g.Mark("j", 0, 1000)
	g.Mark("k", 1, 2) // shorter than one cell: still visible
	out := g.Render(10)
	if !strings.Contains(out, "k") {
		t.Fatal("row missing")
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "k") && !strings.Contains(line, "#") {
			t.Fatalf("tiny interval invisible: %q", line)
		}
	}
}
