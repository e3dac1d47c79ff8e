package sched

import (
	"reflect"
	"testing"

	"cwcs/internal/vjob"
)

// recordingModule answers Waiting for whatever queue it is handed and
// remembers it.
type recordingModule struct{ saw []string }

func (m *recordingModule) Decide(_ *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	target := map[string]vjob.State{}
	for _, j := range queue {
		m.saw = append(m.saw, j.Name)
		target[j.Name] = vjob.Waiting
	}
	return target
}

func TestTerminator(t *testing.T) {
	job := func(name string) *vjob.VJob {
		return vjob.NewVJob(name, 0, vjob.NewVM(name+"-1", "", 1, 512), vjob.NewVM(name+"-2", "", 1, 512))
	}
	for _, tc := range []struct {
		name string
		// place puts the finished vjob's VMs into the configuration.
		place func(t *testing.T, c *vjob.Configuration, j *vjob.VJob)
		want  vjob.State
		found bool
	}{
		{"finished and all running: stop it", func(t *testing.T, c *vjob.Configuration, j *vjob.VJob) {
			for _, v := range j.VMs {
				c.AddVM(v)
				if err := c.SetRunning(v.Name, "n00"); err != nil {
					t.Fatal(err)
				}
			}
		}, vjob.Terminated, true},
		{"finished with a suspended VM: resume first", func(t *testing.T, c *vjob.Configuration, j *vjob.VJob) {
			for _, v := range j.VMs {
				c.AddVM(v)
			}
			if err := c.SetRunning(j.VMs[0].Name, "n00"); err != nil {
				t.Fatal(err)
			}
			if err := c.SetSleeping(j.VMs[1].Name, "n01"); err != nil {
				t.Fatal(err)
			}
		}, vjob.Running, true},
		{"finished, one VM already stopped, the other running: stop it", func(t *testing.T, c *vjob.Configuration, j *vjob.VJob) {
			c.AddVM(j.VMs[0])
			if err := c.SetRunning(j.VMs[0].Name, "n00"); err != nil {
				t.Fatal(err)
			}
		}, vjob.Terminated, true},
		{"already reaped: absent", func(*testing.T, *vjob.Configuration, *vjob.VJob) {}, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mkCluster(2, 2, 4096)
			done, live := job("done"), job("live")
			tc.place(t, c, done)
			inner := &recordingModule{}
			term := Terminator{
				Inner:    inner,
				Finished: func(j *vjob.VJob) bool { return j == done },
				Jobs:     func() []*vjob.VJob { return []*vjob.VJob{done, live} },
			}
			target := term.Decide(c, []*vjob.VJob{done, live})
			if !reflect.DeepEqual(inner.saw, []string{"live"}) {
				t.Fatalf("inner module saw %v, want only the unfinished vjob", inner.saw)
			}
			if got, ok := target["done"]; ok != tc.found || got != tc.want {
				t.Fatalf("done -> %v (present %t), want %v (present %t)", got, ok, tc.want, tc.found)
			}
			if target["live"] != vjob.Waiting {
				t.Fatalf("the inner module's decision was lost: %v", target)
			}
		})
	}
}
