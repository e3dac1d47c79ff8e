package sim

import (
	"testing"

	"cwcs/internal/duration"
	"cwcs/internal/vjob"
)

func lifecycleCluster(t *testing.T) (*Cluster, *vjob.Configuration) {
	t.Helper()
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 2, 4096))
	cfg.AddNode(vjob.NewNode("n1", 2, 4096))
	cfg.AddVM(vjob.NewVM("v1", "j", 1, 1024))
	if err := cfg.SetRunning("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	return New(cfg, duration.Default()), cfg
}

func TestSetNodeOfflineRefusesLoadedNode(t *testing.T) {
	c, cfg := lifecycleCluster(t)
	if err := c.SetNodeOffline("n0"); err == nil {
		t.Fatal("offlined a node still hosting a running VM")
	}
	if err := cfg.SetSleeping("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetNodeOffline("n0"); err == nil {
		t.Fatal("offlined a node still holding a suspended image")
	}
	if err := c.SetNodeOffline("ghost"); err == nil {
		t.Fatal("offlined an unknown node")
	}
}

func TestNodeOfflineOnlineRoundTrip(t *testing.T) {
	c, cfg := lifecycleCluster(t)
	if err := c.SetNodeOffline("n1"); err != nil {
		t.Fatal(err)
	}
	if cfg.Node("n1") != nil {
		t.Fatal("offline node still in the configuration")
	}
	if got := c.Config().Nodes(); len(got) != 1 || got[0].Name != "n0" {
		t.Fatalf("online nodes: %v", got)
	}
	// Idempotent: a second offline is a no-op.
	if err := c.SetNodeOffline("n1"); err != nil {
		t.Fatalf("re-offline: %v", err)
	}
	if err := c.SetNodeOnline("n1"); err != nil {
		t.Fatal(err)
	}
	n := cfg.Node("n1")
	if n == nil || n.CPU() != 2 || n.Memory() != 4096 {
		t.Fatalf("restored node: %+v", n)
	}
	if got := c.Config().Nodes(); len(got) != 2 {
		t.Fatalf("online nodes after the round trip: %v", got)
	}
	if err := c.SetNodeOnline("n1"); err == nil {
		t.Fatal("onlined a node that was not offline")
	}
}

// TestOfflineKeepsInvariantsClean: the node lifecycle itself must not
// trip the watcher — and the structural count stays zero through a
// full offline/online cycle.
func TestOfflineKeepsInvariantsClean(t *testing.T) {
	c, _ := lifecycleCluster(t)
	w := WatchInvariants(c)
	c.Run(1)
	if err := c.SetNodeOffline("n1"); err != nil {
		t.Fatal(err)
	}
	c.Run(2)
	if err := c.SetNodeOnline("n1"); err != nil {
		t.Fatal(err)
	}
	c.Run(3)
	if err := w.Err(); err != nil {
		t.Fatalf("lifecycle tripped the watcher: %v", err)
	}
	if w.StructuralCount() != 0 {
		t.Fatalf("structural breaches: %d", w.StructuralCount())
	}
}

// TestNodeRemovalUnderWatcher: moving a VM off a node and removing the
// node mid-simulation — the legal shape of every offline — never
// counts as a structural breach.
func TestNodeRemovalUnderWatcher(t *testing.T) {
	c, cfg := lifecycleCluster(t)
	w := WatchInvariants(c)
	c.Run(1)
	c.Schedule(2, func() {
		if err := cfg.SetRunning("v1", "n1"); err != nil {
			t.Fatal(err)
		}
		if err := c.SetNodeOffline("n0"); err != nil {
			t.Fatal(err)
		}
	})
	c.Run(3)
	if err := w.Err(); err != nil {
		t.Fatalf("legal removal flagged: %v", err)
	}
	if w.StructuralCount() != 0 {
		t.Fatalf("structural breaches: %d", w.StructuralCount())
	}
}
