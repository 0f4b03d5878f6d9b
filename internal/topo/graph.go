// Package topo builds the network topologies the paper evaluates on
// (§8.1.3): a k-ary fat-tree data center (Facebook workload), the Abilene
// and Geant backbone ISPs, and the Quest topology from the Internet
// Topology Zoo — plus shortest-path and k-shortest-path routing used by the
// traffic-engineering SDNApp.
package topo

import (
	"container/heap"
	"fmt"
	"time"
)

// NodeID indexes a node in a Graph.
type NodeID int

// NodeKind distinguishes traffic endpoints from forwarding elements.
type NodeKind uint8

const (
	// KindHost is a traffic source/sink.
	KindHost NodeKind = iota
	// KindSwitch is a forwarding element with a TCAM.
	KindSwitch
)

// Node is one vertex of the topology.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// LinkID indexes a directed link in a Graph.
type LinkID int

// Link is one directed edge. AddLink creates both directions, so a
// full-duplex cable is two Links with independent capacity.
type Link struct {
	ID       LinkID
	From, To NodeID
	// CapacityBps is the link speed in bits per second.
	CapacityBps float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
}

// Graph is a directed multigraph with named nodes. The zero value is empty
// and ready to use.
type Graph struct {
	Nodes []Node
	Links []Link
	out   map[NodeID][]LinkID
	names map[string]NodeID
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{out: make(map[NodeID][]LinkID), names: make(map[string]NodeID)}
}

// AddNode inserts a node and returns its ID. Names must be unique.
func (g *Graph) AddNode(name string, kind NodeKind) NodeID {
	if _, dup := g.names[name]; dup {
		panic(fmt.Sprintf("topo: duplicate node %q", name))
	}
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{ID: id, Name: name, Kind: kind})
	g.names[name] = id
	return id
}

// AddLink inserts a full-duplex link (two directed edges) between a and b.
func (g *Graph) AddLink(a, b NodeID, capacityBps float64, delay time.Duration) (ab, ba LinkID) {
	ab = g.addDirected(a, b, capacityBps, delay)
	ba = g.addDirected(b, a, capacityBps, delay)
	return ab, ba
}

func (g *Graph) addDirected(from, to NodeID, capacityBps float64, delay time.Duration) LinkID {
	id := LinkID(len(g.Links))
	g.Links = append(g.Links, Link{ID: id, From: from, To: to, CapacityBps: capacityBps, Delay: delay})
	g.out[from] = append(g.out[from], id)
	return id
}

// Out returns the outgoing link IDs of a node.
func (g *Graph) Out(n NodeID) []LinkID { return g.out[n] }

// NumHosts counts host nodes.
func (g *Graph) NumHosts() int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind == KindHost {
			n++
		}
	}
	return n
}

// Hosts returns all host node IDs.
func (g *Graph) Hosts() []NodeID {
	var out []NodeID
	for _, nd := range g.Nodes {
		if nd.Kind == KindHost {
			out = append(out, nd.ID)
		}
	}
	return out
}

// Switches returns all switch node IDs.
func (g *Graph) Switches() []NodeID {
	var out []NodeID
	for _, nd := range g.Nodes {
		if nd.Kind == KindSwitch {
			out = append(out, nd.ID)
		}
	}
	return out
}

// Path is a sequence of directed links from a source to a destination.
type Path struct {
	Links []LinkID
}

// Nodes expands a path to its node sequence, starting at the source.
func (p Path) Nodes(g *Graph) []NodeID {
	if len(p.Links) == 0 {
		return nil
	}
	out := []NodeID{g.Links[p.Links[0]].From}
	for _, l := range p.Links {
		out = append(out, g.Links[l].To)
	}
	return out
}

// SwitchNodes returns the switches a path traverses, in order.
func (p Path) SwitchNodes(g *Graph) []NodeID {
	var out []NodeID
	for _, n := range p.Nodes(g) {
		if g.Nodes[n].Kind == KindSwitch {
			out = append(out, n)
		}
	}
	return out
}

// Delay sums the propagation delays along the path.
func (p Path) Delay(g *Graph) time.Duration {
	var d time.Duration
	for _, l := range p.Links {
		d += g.Links[l].Delay
	}
	return d
}

// Equal reports whether two paths traverse identical links.
func (p Path) Equal(q Path) bool {
	if len(p.Links) != len(q.Links) {
		return false
	}
	for i := range p.Links {
		if p.Links[i] != q.Links[i] {
			return false
		}
	}
	return true
}

// dijkstra computes a min-hop path (ties broken by lower link IDs, making
// routing deterministic) from src to dst, skipping the links in banned and
// the nodes in bannedNodes. Returns ok=false when dst is unreachable.
func (g *Graph) dijkstra(src, dst NodeID, banned map[LinkID]bool, bannedNodes map[NodeID]bool) (Path, bool) {
	const inf = int(1) << 30
	dist := make([]int, len(g.Nodes))
	prev := make([]LinkID, len(g.Nodes))
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[src] = 0
	pq := &nodeQueue{{node: src, dist: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(nodeDist)
		if cur.dist > dist[cur.node] {
			continue
		}
		if cur.node == dst {
			break
		}
		for _, lid := range g.out[cur.node] {
			if banned != nil && banned[lid] {
				continue
			}
			l := g.Links[lid]
			if bannedNodes != nil && bannedNodes[l.To] && l.To != dst {
				continue
			}
			nd := cur.dist + 1
			if nd < dist[l.To] {
				dist[l.To] = nd
				prev[l.To] = lid
				heap.Push(pq, nodeDist{node: l.To, dist: nd})
			}
		}
	}
	if prev[dst] == -1 {
		return Path{}, false
	}
	var rev []LinkID
	for at := dst; at != src; {
		l := prev[at]
		rev = append(rev, l)
		at = g.Links[l].From
	}
	links := make([]LinkID, len(rev))
	for i := range rev {
		links[i] = rev[len(rev)-1-i]
	}
	return Path{Links: links}, true
}

// ShortestPath returns a deterministic min-hop path from src to dst.
func (g *Graph) ShortestPath(src, dst NodeID) (Path, bool) {
	return g.dijkstra(src, dst, nil, nil)
}

// KShortestPaths returns up to k loopless min-hop paths (Yen's algorithm).
// The first is ShortestPath; the rest are the TE application's alternative
// paths for moving flows off congested links.
func (g *Graph) KShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := g.ShortestPath(src, dst)
	if !ok {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		last := paths[len(paths)-1]
		lastNodes := last.Nodes(g)
		for i := 0; i < len(last.Links); i++ {
			spurNode := lastNodes[i]
			rootLinks := append([]LinkID(nil), last.Links[:i]...)

			banned := make(map[LinkID]bool)
			for _, p := range paths {
				if hasPrefix(p.Links, rootLinks) && len(p.Links) > i {
					banned[p.Links[i]] = true
				}
			}
			bannedNodes := make(map[NodeID]bool)
			for _, n := range lastNodes[:i] {
				bannedNodes[n] = true
			}

			spur, ok := g.dijkstra(spurNode, dst, banned, bannedNodes)
			if !ok {
				continue
			}
			total := Path{Links: append(append([]LinkID(nil), rootLinks...), spur.Links...)}
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(candidates); i++ {
			if pathLess(candidates[i], candidates[best]) {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

func hasPrefix(links, prefix []LinkID) bool {
	if len(links) < len(prefix) {
		return false
	}
	for i := range prefix {
		if links[i] != prefix[i] {
			return false
		}
	}
	return true
}

func containsPath(ps []Path, q Path) bool {
	for _, p := range ps {
		if p.Equal(q) {
			return true
		}
	}
	return false
}

func pathLess(a, b Path) bool {
	if len(a.Links) != len(b.Links) {
		return len(a.Links) < len(b.Links)
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return a.Links[i] < b.Links[i]
		}
	}
	return false
}

type nodeDist struct {
	node NodeID
	dist int
}

type nodeQueue []nodeDist

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(nodeDist)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
