"""Alkanes: free trees with maximum degree 4.

A genus-g alkane is a connected acyclic graph on vertices 1..g in which
every vertex has degree at most 4 (quadrivalent carbon).  These index the
branch patterns handled by the period-matrix modules, so enumeration must
be exact: one representative per isomorphism class, in a deterministic
order.

Enumeration strategy: free trees are generated centroid-rooted.  A tree
with a unique centroid is produced exactly once as a rooted tree whose
root subtrees all have <= floor((g-1)/2) vertices; a bicentroidal tree
(g even) is produced once as an unordered pair of rooted halves of g/2
vertices joined root-to-root.  Children multisets are generated in
canonical (sorted-code) order, so no isomorphism dedup pass is needed.
The independent count oracle, a Pruefer-sequence brute force, lives in
``checks``: ``selftest`` runs it for small genus, the tests for genus <= 7.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Iterator, List, Tuple

from .errors import RangeError, StructureError
from .frozen import Frozen

MAX_CARBON_DEGREE = 4
GENUS_CAP = 16  # the largest genus enumerated


class Alkane(Frozen):
    """Labeled representative of a max-degree-4 free tree on {1..genus}."""

    __slots__ = _fields = ("genus", "edges")

    def _check(self):
        edges = [(i, j) if i < j else (j, i) for i, j in self.edges]
        loop = next((i for i, j in edges if i == j), None)
        if loop is not None:
            raise StructureError(f"self-loop at vertex {loop}")
        edges = tuple(sorted(edges))
        if len(set(edges)) != len(edges):
            raise StructureError("duplicate edges")
        object.__setattr__(self, "edges", edges)
        g = self.genus
        if g < 1:
            raise RangeError(f"genus must be >= 1, got {g}")
        if len(edges) != g - 1:
            raise StructureError(f"{len(edges)} edges on {g} vertices is not a tree")
        if edges and (edges[0][0] < 1 or max(j for _, j in edges) > g):
            raise StructureError("edge endpoint outside 1..genus")
        adj = self.adjacency()
        if max(map(len, adj.values())) > MAX_CARBON_DEGREE:
            raise StructureError("vertex of degree > 4")
        # connectivity (with the right edge count this also rules out cycles)
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != g:
            raise StructureError("edge set is not connected")

    def adjacency(self) -> Dict[int, List[int]]:
        adj: Dict[int, List[int]] = {v: [] for v in range(1, self.genus + 1)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def degrees(self) -> Dict[int, int]:
        return {v: len(nbrs) for v, nbrs in self.adjacency().items()}

    @classmethod
    def chain(cls, g: int) -> "Alkane":
        """The linear alkane with path labeling 1-2-...-g."""
        return cls(g, [(i, i + 1) for i in range(1, g)])

    def to_json_dict(self) -> dict:
        return {
            "genus": self.genus,
            "edges": [list(e) for e in self.edges],
            "code": canonical_code(self),
            "valency": list(valency_profile(self)),
            "hydrogens": hydrogen_count(self),
        }


# ---------------------------------------------------------------------------
# canonical codes


def _rooted_code(adj: Dict[int, List[int]], root: int, parent: int | None = None) -> str:
    kids = sorted(
        _rooted_code(adj, w, root) for w in adj[root] if w != parent
    )
    return "(" + "".join(kids) + ")"


def _centroids(a: Alkane) -> List[int]:
    """The vertices whose deletion leaves the smallest largest component."""
    adj = a.adjacency()
    order, parent = [1], {1: None}  # breadth-first from vertex 1
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    size = dict.fromkeys(order, 1)  # subtree sizes, leaves first
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    # deleting v leaves its child subtrees and, above it, the rest
    worst = {
        v: max([a.genus - size[v]] + [size[w] for w in adj[v] if w != parent[v]])
        for v in order
    }
    best = min(worst.values())
    return sorted(v for v in order if worst[v] == best)


def canonical_code(a: Alkane) -> str:
    """AHU-style nested-parentheses code, rooted at the centroid.

    Bicentroidal trees take the lexicographically smaller of the two
    centroid-rooted codes.  Equal codes <=> isomorphic alkanes.
    """
    adj = a.adjacency()
    return min(_rooted_code(adj, c) for c in _centroids(a))


def valency_profile(a: Alkane) -> Tuple[int, int, int, int]:
    """Counts of vertices bonded to 1, 2, 3, 4 other carbons."""
    counts = [0, 0, 0, 0, 0]
    for d in a.degrees().values():
        counts[d] += 1
    return tuple(counts[1:])


def hydrogen_count(a: Alkane) -> int:
    return sum(MAX_CARBON_DEGREE - d for d in a.degrees().values())


def is_chain(a: Alkane) -> bool:
    return all(d <= 2 for d in a.degrees().values())


# ---------------------------------------------------------------------------
# enumeration


def _partitions(total: int, max_parts: int, max_part: int) -> Iterator[Tuple[int, ...]]:
    """Non-increasing positive parts of ``total``, at most max_parts, each <= max_part."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


def _forest_codes(total: int, max_children: int, max_size: int) -> Iterator[str]:
    """Codes of a root joined to a forest of ``total`` vertices: at most
    max_children rooted subtrees of at most max_size vertices each, whose
    vertices have <= 3 children.  ``total`` 0 gives the lone root "()"."""
    for part in _partitions(total, max_children, max_size):
        pools = [
            itertools.combinations_with_replacement(_rooted_codes(s, 3), part.count(s))
            for s in sorted(set(part), reverse=True)
        ]
        for combo in itertools.product(*pools):
            kids = [c for group in combo for c in group]
            yield "(" + "".join(sorted(kids)) + ")"


@functools.lru_cache(maxsize=None)
def _rooted_codes(n: int, max_children: int) -> Tuple[str, ...]:
    """Canonical codes of rooted trees on n vertices; non-root vertices have
    <= 3 children (degree <= 4 once the parent edge is counted)."""
    return tuple(_forest_codes(n - 1, max_children, n - 1))


def _root_children(code: str) -> List[str]:
    """Top-level balanced substrings of code[1:-1]."""
    kids, depth, start = [], 0, 1
    for pos in range(1, len(code) - 1):
        ch = code[pos]
        if ch == "(":
            if depth == 0:
                start = pos
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                kids.append(code[start : pos + 1])
    return kids


def _attach(host: str, extra: str) -> str:
    return "(" + "".join(sorted(_root_children(host) + [extra])) + ")"


@functools.lru_cache(maxsize=None)
def _free_codes(g: int) -> Tuple[str, ...]:
    # unicentroidal: every root subtree holds at most (g-1)//2 vertices
    out = list(_forest_codes(g - 1, MAX_CARBON_DEGREE, (g - 1) // 2))
    if g % 2 == 0:
        halves = sorted(_rooted_codes(g // 2, 3))
        for c1, c2 in itertools.combinations_with_replacement(halves, 2):
            out.append(min(_attach(c1, c2), _attach(c2, c1)))
    return tuple(sorted(out))


def alkane_from_code(code: str) -> Alkane:
    """Labeled representative: vertices numbered in DFS preorder of the
    code, in one pass with a stack of the open vertices."""
    edges = []
    open_vertices: List[int] = []
    g = 0
    for ch in code:
        if ch == "(":
            g += 1
            if open_vertices:
                edges.append((open_vertices[-1], g))
            open_vertices.append(g)
        else:
            open_vertices.pop()
    return Alkane(g, edges)


def alkane_codes(g: int) -> Tuple[str, ...]:
    """The canonical codes of the genus-g alkanes, sorted: the code of each
    ``enumerate_alkanes(g)`` entry, in the same order."""
    if not 1 <= g <= GENUS_CAP:
        raise RangeError(f"genus {g} outside 1..{GENUS_CAP}")
    return _free_codes(g)


def enumerate_alkanes(g: int) -> List[Alkane]:
    """One labeled representative per isomorphism class, sorted by code."""
    return [alkane_from_code(code) for code in alkane_codes(g)]


def count_alkanes(g: int) -> int:
    return len(alkane_codes(g))
