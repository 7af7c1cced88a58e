package core

import (
	"fmt"
	"sort"
	"strings"

	"selforg/internal/domain"
	"selforg/internal/segment"
)

// node is one vertex of the persistent replica tree (§5): "A segment S is
// a child of a segment P if the range of values in P is a super-set of
// the range of values in S." Children tile the parent's range exactly, in
// ascending order. (The paper's pseudocode calls the down-pointers
// `ancestors`; they are children — see DESIGN.md.)
//
// Concurrency contract: a node published through the engine's base
// pointer is immutable — its segment, its children slice and every node
// reachable from it never change. All tree mutation is path copying: the
// writer builds fresh nodes from the touched leaf up to the sentinel and
// publishes the new root atomically, so any reader (or pinned View)
// holding an old root keeps a consistent tree forever. There are no
// parent pointers — a persistent structure cannot have back-edges — and
// no stored depth; both fall out of the writer's descent.
type node struct {
	seg      *segment.Segment
	children []*node
}

// isLeaf reports whether the node has no children (the pseudocode's
// `s.ancnumber = 0`).
func (n *node) isLeaf() bool { return len(n.children) == 0 }

// withChildren returns a copy of n holding kids — the path-copying
// counterpart of attaching or replacing children. kids must tile n's
// range; assertTiling guards the invariant at construction time, the
// only time it can break.
func (n *node) withChildren(kids []*node) *node {
	assertTiling(n.seg.Rng, kids)
	return &node{seg: n.seg, children: kids}
}

// assertTiling panics unless kids tile rng exactly: adjacent, ascending,
// first starts at rng.Lo, last ends at rng.Hi.
func assertTiling(rng domain.Range, kids []*node) {
	if len(kids) == 0 {
		panic("core: node with empty child tiling")
	}
	if kids[0].seg.Rng.Lo != rng.Lo || kids[len(kids)-1].seg.Rng.Hi != rng.Hi {
		panic(fmt.Sprintf("core: children do not tile %v", rng))
	}
	for i := 1; i < len(kids); i++ {
		if !kids[i-1].seg.Rng.Adjacent(kids[i].seg.Rng) {
			panic(fmt.Sprintf("core: children %v / %v not adjacent",
				kids[i-1].seg.Rng, kids[i].seg.Rng))
		}
	}
}

// walk visits every node under n (including n) in depth-first order,
// with the depth below n.
func (n *node) walk(visit func(*node, int)) {
	var rec func(*node, int)
	rec = func(m *node, depth int) {
		visit(m, depth)
		for _, c := range m.children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
}

// validate checks the structural invariants of the subtree rooted at n:
//   - children tile the parent's range exactly;
//   - materialized segments hold values within their bounds;
//   - every leaf has a materialized node on its path from n (coverability),
//     provided n is the sentinel or materialized itself is counted.
func (n *node) validate(coveredAbove bool) error {
	covered := coveredAbove || !n.seg.Virtual
	if n.isLeaf() {
		if !covered {
			return fmt.Errorf("core: leaf %v has no materialized ancestor", n.seg)
		}
		return nil
	}
	if n.children[0].seg.Rng.Lo != n.seg.Rng.Lo {
		return fmt.Errorf("core: first child of %v starts at %d", n.seg, n.children[0].seg.Rng.Lo)
	}
	if n.children[len(n.children)-1].seg.Rng.Hi != n.seg.Rng.Hi {
		return fmt.Errorf("core: last child of %v ends at %d", n.seg, n.children[len(n.children)-1].seg.Rng.Hi)
	}
	for i, c := range n.children {
		if i > 0 && !n.children[i-1].seg.Rng.Adjacent(c.seg.Rng) {
			return fmt.Errorf("core: children %v / %v of %v not adjacent",
				n.children[i-1].seg, c.seg, n.seg)
		}
		if err := c.validate(covered); err != nil {
			return err
		}
	}
	for _, c := range n.children {
		if !c.seg.Virtual {
			if c.seg.Enc != nil {
				// Min-max containment is equivalent to per-value
				// containment.
				if lo, hi, ok := c.seg.Enc.MinMax(); ok && (!c.seg.Rng.Contains(lo) || !c.seg.Rng.Contains(hi)) {
					return fmt.Errorf("core: encoded values [%d, %d] outside %v", lo, hi, c.seg)
				}
				continue
			}
			for _, v := range c.seg.Vals {
				if !c.seg.Rng.Contains(v) {
					return fmt.Errorf("core: value %d outside %v", v, c.seg)
				}
			}
		}
	}
	return nil
}

// dump renders the subtree like the paper's Figure 4, cross-marking
// virtual segments.
func (n *node) dump(b *strings.Builder, depth int) {
	kind := "mat"
	if n.seg.Virtual {
		kind = "vir"
	}
	fmt.Fprintf(b, "%s%s %v #%d\n", strings.Repeat("  ", depth), kind, n.seg.Rng, n.seg.Count())
	for _, c := range n.children {
		c.dump(b, depth+1)
	}
}

// overlapWindow returns the half-open index interval [i, j) of n's
// children overlapping q. Children tile n in ascending order, so they are
// contiguous and two binary searches find them — segment.List.Overlapping's
// meta-index lookup, touching no payload and allocating nothing.
func (n *node) overlapWindow(q domain.Range) (i, j int) {
	if q.IsEmpty() {
		return 0, 0
	}
	kids := n.children
	i = sort.Search(len(kids), func(k int) bool { return kids[k].seg.Rng.Hi >= q.Lo })
	j = sort.Search(len(kids), func(k int) bool { return kids[k].seg.Rng.Lo > q.Hi })
	return i, max(i, j)
}

// overlapChildren returns the children of n overlapping q: a window of
// n.children, not a copy.
func (n *node) overlapChildren(q domain.Range) []*node {
	i, j := n.overlapWindow(q)
	return n.children[i:j]
}

// getCover implements Algorithm 3 on a pinned root: the minimal set of
// materialized segments covering the query — deepest materialized
// descendants, backing off to the nearest materialized ancestor when any
// branch bottoms out in a virtual leaf. The walk is read-only, so any
// goroutine may run it on any snapshot it holds.
func getCover(root *node, q domain.Range) []*node {
	var cover []*node
	if !coverRec(root, q, &cover) {
		// Unreachable while the coverability invariant holds: every leaf
		// has a materialized node on its path below the sentinel.
		panic(fmt.Sprintf("core: no cover for %v — replica tree invariant broken", q))
	}
	return cover
}

func coverRec(n *node, q domain.Range, cover *[]*node) bool {
	if n.isLeaf() {
		if n.seg.Virtual {
			return false
		}
		*cover = append(*cover, n)
		return true
	}
	start := len(*cover)
	for _, c := range n.overlapChildren(q) {
		if !coverRec(c, q, cover) {
			*cover = (*cover)[:start] // backtrack
			if n.seg.Virtual {
				return false
			}
			*cover = append(*cover, n)
			return true
		}
	}
	return true
}
