"""Core graph data structures.

The library works with undirected graphs whose vertices are the integers
``0 .. n-1`` and whose edges carry non-negative integer weights (an
unweighted graph is simply one where every edge has weight 1).  Zero-weight
edges are allowed because the paper's degree-reduction step (Section 4)
splits high-degree vertices using weight-0 auxiliary edges.

Two classes are provided:

* :class:`Graph` -- the compact integer-vertex adjacency-list graph used by
  every algorithm in the library.
* :class:`GraphBuilder` -- a convenience builder that accepts arbitrary
  hashable vertex names (the paper's constructions use structured names
  such as ``("level", i, vector)``) and produces a :class:`Graph` plus the
  name <-> index maps.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Graph", "GraphBuilder"]


class Graph:
    """An undirected graph with non-negative integer edge weights.

    Vertices are ``0 .. n-1``.  Parallel edges are not stored: adding an
    edge that already exists keeps the smaller weight (the natural metric
    semantics).  Self-loops are rejected, as they never lie on a shortest
    path.

    The adjacency structure is a list of per-vertex lists of
    ``(neighbor, weight)`` pairs, which keeps traversal tight loops free
    of dictionary overhead.
    """

    __slots__ = ("_adj", "_num_edges", "_weighted")

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._adj: List[List[Tuple[int, int]]] = [[] for _ in range(num_vertices)]
        self._num_edges = 0
        self._weighted = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Append a fresh isolated vertex and return its index."""
        self._adj.append([])
        return len(self._adj) - 1

    def add_vertices(self, count: int) -> range:
        """Append ``count`` fresh vertices, returning their index range."""
        if count < 0:
            raise ValueError("count must be non-negative")
        start = len(self._adj)
        self._adj.extend([] for _ in range(count))
        return range(start, len(self._adj))

    def add_edge(self, u: int, v: int, weight: int = 1) -> None:
        """Add the undirected edge ``{u, v}`` with the given weight.

        If the edge already exists the minimum of the old and new weight is
        kept.  Raises ``ValueError`` for self-loops or negative weights.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if weight < 0:
            raise ValueError(f"negative edge weight {weight} is not allowed")
        existing = self.edge_weight(u, v)
        if existing is not None:
            if weight < existing:
                self._set_weight(u, v, weight)
                self._set_weight(v, u, weight)
            return
        self._adj[u].append((v, weight))
        self._adj[v].append((u, weight))
        self._num_edges += 1
        if weight != 1:
            self._weighted = True

    def remove_edge(self, u: int, v: int) -> int:
        """Remove the undirected edge ``{u, v}`` and return its weight.

        Raises ``KeyError`` if the edge is absent.  ``is_weighted`` stays
        conservatively ``True`` even if the last non-unit edge is removed
        (it only gates which traversal is used, and Dijkstra remains
        correct on unit weights).
        """
        self._check_vertex(u)
        self._check_vertex(v)
        weight = self.edge_weight(u, v)
        if weight is None:
            raise KeyError(f"edge {{{u}, {v}}} not present")
        self._adj[u] = [pair for pair in self._adj[u] if pair[0] != v]
        self._adj[v] = [pair for pair in self._adj[v] if pair[0] != u]
        self._num_edges -= 1
        return weight

    def _set_weight(self, u: int, v: int, weight: int) -> None:
        row = self._adj[u]
        for i, (w, _) in enumerate(row):
            if w == v:
                row[i] = (v, weight)
                if weight != 1:
                    self._weighted = True
                return
        raise KeyError(f"edge {{{u}, {v}}} not present")

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._adj):
            raise IndexError(f"vertex {v} out of range [0, {len(self._adj)})")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def is_weighted(self) -> bool:
        """True if any edge has weight != 1 (so BFS is not sufficient)."""
        return self._weighted

    def vertices(self) -> range:
        return range(len(self._adj))

    def neighbors(self, v: int) -> List[Tuple[int, int]]:
        """The list of ``(neighbor, weight)`` pairs of ``v`` (do not mutate)."""
        self._check_vertex(v)
        return self._adj[v]

    def neighbor_ids(self, v: int) -> List[int]:
        """Just the neighbor indices of ``v``."""
        self._check_vertex(v)
        return [u for u, _ in self._adj[v]]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def degrees(self) -> List[int]:
        """Every vertex's degree, in vertex order."""
        return [len(row) for row in self._adj]

    def max_degree(self) -> int:
        return max((len(row) for row in self._adj), default=0)

    def average_degree(self) -> float:
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_weight(u, v) is not None

    def edge_weight(self, u: int, v: int) -> Optional[int]:
        """Weight of edge ``{u, v}``, or ``None`` if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        if len(self._adj[u]) > len(self._adj[v]):
            u, v = v, u
        for w, weight in self._adj[u]:
            if w == v:
                return weight
        return None

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield each undirected edge once as ``(u, v, weight)`` with u < v."""
        for u, row in enumerate(self._adj):
            for v, weight in row:
                if u < v:
                    yield (u, v, weight)

    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        g = Graph(self.num_vertices)
        g._adj = [list(row) for row in self._adj]
        g._num_edges = self._num_edges
        g._weighted = self._weighted
        return g

    def induced_subgraph(self, keep: Iterable[int]) -> Tuple["Graph", Dict[int, int]]:
        """The subgraph induced by ``keep``.

        Returns ``(subgraph, old_to_new)`` where ``old_to_new`` maps
        retained original indices to indices in the subgraph.
        """
        kept = sorted(set(keep))
        for v in kept:
            self._check_vertex(v)
        old_to_new = {old: new for new, old in enumerate(kept)}
        sub = Graph(len(kept))
        for old_u in kept:
            for old_v, weight in self._adj[old_u]:
                if old_u < old_v and old_v in old_to_new:
                    sub.add_edge(old_to_new[old_u], old_to_new[old_v], weight)
        return sub, old_to_new

    def remove_vertices(self, drop: Iterable[int]) -> Tuple["Graph", Dict[int, int]]:
        """The subgraph obtained by deleting ``drop`` and incident edges."""
        drop_set = set(drop)
        return self.induced_subgraph(
            v for v in self.vertices() if v not in drop_set
        )

    def __repr__(self) -> str:
        kind = "weighted" if self._weighted else "unweighted"
        return (
            f"Graph(n={self.num_vertices}, m={self.num_edges}, {kind})"
        )


class GraphBuilder:
    """Build a :class:`Graph` using arbitrary hashable vertex names.

    The paper's constructions index vertices by structured names such as
    ``("grid", level, vector)`` or ``("tree", v, side, position)``.  The
    builder interns each name on first use and exposes both directions of
    the mapping after :meth:`build`.
    """

    def __init__(self) -> None:
        self._index: Dict[Hashable, int] = {}
        self._names: List[Hashable] = []
        self._edges: List[Tuple[int, int, int]] = []

    def vertex(self, name: Hashable) -> int:
        """Intern ``name`` and return its vertex index."""
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
        return idx

    def has_vertex(self, name: Hashable) -> bool:
        return name in self._index

    def add_edge(self, name_u: Hashable, name_v: Hashable, weight: int = 1) -> None:
        self._edges.append((self.vertex(name_u), self.vertex(name_v), weight))

    @property
    def num_vertices(self) -> int:
        return len(self._names)

    def build(self) -> Tuple[Graph, Dict[Hashable, int], List[Hashable]]:
        """Materialize the graph.

        Returns ``(graph, name_to_index, index_to_name)``.
        """
        g = Graph(len(self._names))
        for u, v, w in self._edges:
            g.add_edge(u, v, w)
        return g, dict(self._index), list(self._names)
