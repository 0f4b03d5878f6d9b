package topo

import (
	"testing"
	"time"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a", KindSwitch)
	b := g.AddNode("b", KindHost)
	ab, ba := g.AddLink(a, b, 1e9, time.Millisecond)
	if g.Links[ab].From != a || g.Links[ab].To != b {
		t.Error("forward link endpoints")
	}
	if g.Links[ba].From != b || g.Links[ba].To != a {
		t.Error("reverse link endpoints")
	}
	if len(g.Out(a)) != 1 || len(g.Out(b)) != 1 {
		t.Error("adjacency")
	}
	if g.NumHosts() != 1 || len(g.Hosts()) != 1 || len(g.Switches()) != 1 {
		t.Error("node-kind accounting")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode must panic")
		}
	}()
	g.AddNode("a", KindHost)
}

func lineGraph() (*Graph, []NodeID) {
	g := NewGraph()
	var ids []NodeID
	for _, n := range []string{"a", "b", "c", "d"} {
		ids = append(ids, g.AddNode(n, KindSwitch))
	}
	g.AddLink(ids[0], ids[1], 1e9, time.Millisecond)
	g.AddLink(ids[1], ids[2], 1e9, time.Millisecond)
	g.AddLink(ids[2], ids[3], 1e9, time.Millisecond)
	return g, ids
}

func TestShortestPathLine(t *testing.T) {
	g, ids := lineGraph()
	p, ok := g.ShortestPath(ids[0], ids[3])
	if !ok || len(p.Links) != 3 {
		t.Fatalf("path = %v, ok=%v", p, ok)
	}
	nodes := p.Nodes(g)
	if len(nodes) != 4 || nodes[0] != ids[0] || nodes[3] != ids[3] {
		t.Errorf("nodes = %v", nodes)
	}
	if p.Delay(g) != 3*time.Millisecond {
		t.Errorf("delay = %v", p.Delay(g))
	}
	if len(p.SwitchNodes(g)) != 4 {
		t.Errorf("switch nodes = %v", p.SwitchNodes(g))
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a", KindSwitch)
	b := g.AddNode("b", KindSwitch)
	if _, ok := g.ShortestPath(a, b); ok {
		t.Error("disconnected nodes must be unreachable")
	}
}

func diamondGraph() (*Graph, NodeID, NodeID) {
	// a -> {b, c} -> d plus a longer detour a->e->f->d.
	g := NewGraph()
	a := g.AddNode("a", KindSwitch)
	b := g.AddNode("b", KindSwitch)
	c := g.AddNode("c", KindSwitch)
	d := g.AddNode("d", KindSwitch)
	e := g.AddNode("e", KindSwitch)
	f := g.AddNode("f", KindSwitch)
	g.AddLink(a, b, 1e9, time.Millisecond)
	g.AddLink(b, d, 1e9, time.Millisecond)
	g.AddLink(a, c, 1e9, time.Millisecond)
	g.AddLink(c, d, 1e9, time.Millisecond)
	g.AddLink(a, e, 1e9, time.Millisecond)
	g.AddLink(e, f, 1e9, time.Millisecond)
	g.AddLink(f, d, 1e9, time.Millisecond)
	return g, a, d
}

func TestKShortestPaths(t *testing.T) {
	g, a, d := diamondGraph()
	paths := g.KShortestPaths(a, d, 3)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	if len(paths[0].Links) != 2 || len(paths[1].Links) != 2 || len(paths[2].Links) != 3 {
		t.Errorf("path lengths = %d,%d,%d", len(paths[0].Links), len(paths[1].Links), len(paths[2].Links))
	}
	// All loopless and distinct.
	for i := range paths {
		seen := map[NodeID]bool{}
		for _, n := range paths[i].Nodes(g) {
			if seen[n] {
				t.Errorf("path %d has a loop", i)
			}
			seen[n] = true
		}
		for j := i + 1; j < len(paths); j++ {
			if paths[i].Equal(paths[j]) {
				t.Errorf("paths %d and %d identical", i, j)
			}
		}
	}
	// Asking for more than exist returns what exists.
	if got := g.KShortestPaths(a, d, 10); len(got) != 3 {
		t.Errorf("k=10 returned %d paths", len(got))
	}
	if got := g.KShortestPaths(a, d, 0); got != nil {
		t.Error("k=0 must return nil")
	}
}

func TestFatTreeShape(t *testing.T) {
	for _, k := range []int{4, 8} {
		g := FatTree(k, 40e9, 10*time.Microsecond)
		half := k / 2
		wantHosts := k * half * half
		wantSwitches := half*half + k*half*2
		if g.NumHosts() != wantHosts {
			t.Errorf("k=%d: hosts = %d, want %d", k, g.NumHosts(), wantHosts)
		}
		if got := len(g.Switches()); got != wantSwitches {
			t.Errorf("k=%d: switches = %d, want %d", k, got, wantSwitches)
		}
		// Any two hosts in different pods are 6 links apart (host-edge-agg-
		// core-agg-edge-host); same edge pair is 2.
		hosts := g.Hosts()
		p, ok := g.ShortestPath(hosts[0], hosts[len(hosts)-1])
		if !ok || len(p.Links) != 6 {
			t.Errorf("k=%d: cross-pod path = %d links, want 6", k, len(p.Links))
		}
		p, ok = g.ShortestPath(hosts[0], hosts[1])
		if !ok || len(p.Links) != 2 {
			t.Errorf("k=%d: same-edge path = %d links, want 2", k, len(p.Links))
		}
	}
}

func TestFatTree16MatchesPaper(t *testing.T) {
	g := FatTree(16, 40e9, 10*time.Microsecond)
	if g.NumHosts() != 1024 {
		t.Errorf("k=16 hosts = %d, want 1024 (paper §2.2)", g.NumHosts())
	}
}

func TestFatTreeValidation(t *testing.T) {
	for _, k := range []int{0, 3, -2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FatTree(%d) must panic", k)
				}
			}()
			FatTree(k, 1e9, time.Millisecond)
		}()
	}
}

func TestISPTopologies(t *testing.T) {
	cases := []struct {
		name  string
		g     *Graph
		nodes int
	}{
		{"abilene", Abilene(), 11},
		{"geant", Geant(), 23},
		{"quest", Quest(), 20},
	}
	for _, c := range cases {
		if got := len(c.g.Switches()); got != c.nodes {
			t.Errorf("%s: %d switches, want %d", c.name, got, c.nodes)
		}
		if got := c.g.NumHosts(); got != c.nodes {
			t.Errorf("%s: %d hosts, want %d (one per PoP)", c.name, got, c.nodes)
		}
		// Fully connected: every host reaches every other host.
		hosts := c.g.Hosts()
		for _, h := range hosts[1:] {
			if _, ok := c.g.ShortestPath(hosts[0], h); !ok {
				t.Errorf("%s: host %d unreachable from host %d", c.name, h, hosts[0])
			}
		}
		// TE needs alternatives: at least 2 paths between some PoP pair.
		sw := c.g.Switches()
		if got := c.g.KShortestPaths(sw[0], sw[len(sw)-1], 2); len(got) < 2 {
			t.Errorf("%s: no alternative paths", c.name)
		}
	}
}
