"""Magnetic graphs: weighted simple graphs carrying unit-modulus edge phases.

The phase of an oriented edge lives in the cyclic group of ell-th roots of
unity and is stored as an integer exponent, never as a floating-point complex
number, so group operations along walks stay exact: components and holonomies
are read off one spanning forest, distances off a BFS over (vertex, exponent)
states. exp(2*pi*1j*s/ell) is materialized only in the oriented-edge table
that every operator is assembled from. A plain graph is one whose exponents
are all 0; ``untwisted()`` gives that graph for any signature.

Vertices are 0-indexed integers; the edge order of the input document fixes
the summation / matrix-row order everywhere downstream. Graphs are immutable
after construction and all queries are pure; the expensive ones are computed
once per graph and stored on it (``memoised_on_graph``).
"""

from __future__ import annotations

import json
import math
import operator
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import cached_property, wraps
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ParseError, SizeError, ValidationError

__all__ = [
    "Edge",
    "MagneticGraph",
    "SignatureStatus",
    "load_graph",
    "hop_distances",
    "diameter",
    "is_connected",
    "connected_components",
    "signature_status",
    "random_magnetic_graph",
]


class Edge(NamedTuple):
    """One undirected edge; ``s`` is the phase exponent of orientation u -> v."""

    u: int
    v: int
    w: float
    s: int


class OrientedEdges(NamedTuple):
    """One row per oriented edge x -> y: x in vertex order, y in ``neighbors(x)`` order.

    With (T f)[r] = phase[r] f(y) - f(x), summing weight[r] (T f)[r] over the
    rows leaving x gives (Lf)(x), summing weight[r] |(T f)[r]|^2 gives the
    local energy, and half the sum of weight[r] (T u)[r] conj((T v)[r]) gives
    gamma(u, v)(x). ``coef[r]`` is the Laplacian entry
    M[x, y] = p_xy * sigma_xy / d_x, and ``exponent[r]`` the integer exponent
    of sigma_xy, for decisions that must not round. Every array has at most R
    entries.
    """

    src: np.ndarray       # (R,) int, x of each row, nondecreasing
    dst: np.ndarray       # (R,) int, y of each row
    first: np.ndarray     # (N,) int, the first row leaving each vertex
    weight: np.ndarray    # (R,) real, p_xy / d_x
    phase: np.ndarray     # (R,) complex, sigma_xy
    coef: np.ndarray      # (R,) complex
    exponent: np.ndarray  # (R,) int, in [0, ell)


class SignatureStatus(NamedTuple):
    balanced: bool
    entire: bool


def _integer(value) -> int:
    """``value`` as an int by the one integer rule of the graph boundary:
    Python and numpy integers pass (``operator.index``); a bool or any other
    value, an integral float too, raises TypeError, so nothing is truncated."""
    if isinstance(value, bool):
        raise TypeError(f"a bool is not an integer: {value!r}")
    return operator.index(value)


def _vertex(num_vertices: int, x) -> int:
    """``x`` as a vertex in range by ``_integer``'s rule, else ValidationError."""
    with suppress(TypeError):
        if 0 <= (v := _integer(x)) < num_vertices:
            return v
    raise ValidationError(f"vertex must be an integer in [0, {num_vertices}), got {x!r}")


def _positive(name: str, value) -> int:
    """``value`` as an int in [1, 2^62] by ``_integer``'s rule, else
    ValidationError. Exponents are int64, and a walk x -> y -> z adds two."""
    k = 0
    with suppress(TypeError):
        k = _integer(value)
    if k < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    if k > 1 << 62:
        raise ValidationError(f"{name} must be at most 2**62, got {k}")
    return k


@dataclass(frozen=True, eq=False)
class MagneticGraph:
    """Weighted simple graph with a signature into the cyclic group of order ``ell``.

    Invariants enforced at construction: integer fields by ``_integer``'s
    rule, weights floats or such integers, ell <= 2^62, no loops, no duplicate
    unordered pairs, strictly positive weights, exponents in [0, ell), no
    isolated vertices. Each undirected edge stores a single exponent; the
    reverse orientation carries the inverse phase, i.e. exponent (ell - s) % ell.
    """

    num_vertices: int
    ell: int
    edges: tuple[Edge, ...]
    degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, ell = _positive("num_vertices", self.num_vertices), _positive("ell", self.ell)
        seen: set[tuple[int, int]] = set()
        deg: dict[int, float] = {}
        norm: list[Edge] = []
        for e in self.edges:
            try:   # the weight is converted here, and only here
                e = Edge(*e)
                if not isinstance(e.w, (float, np.floating)):
                    _integer(e.w)   # a weight that is no float is an integer; never a bool
                u, v, w, s = _integer(e.u), _integer(e.v), float(e.w), _integer(e.s)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"malformed edge tuple {e!r}") from exc
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge endpoint out of range: {e}")
            if u == v:
                raise ValidationError(f"loop edge not allowed: {e}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValidationError(f"duplicate edge on pair {key}")
            seen.add(key)
            if not (math.isfinite(w) and w > 0):
                raise ValidationError(f"edge weight must be positive and finite: {e}")
            if not 0 <= s < ell:
                raise ValidationError(f"exponent {s} out of range [0, {ell})")
            norm.append(Edge(u, v, w, s))
            deg[u] = deg.get(u, 0.0) + w
            deg[v] = deg.get(v, 0.0) + w
        if len(deg) < n:  # checked before anything of length n is allocated
            isolated = next(x for x in range(n) if x not in deg)
            raise ValidationError(f"isolated vertex {isolated} (zero degree)")
        degrees = np.array([deg[x] for x in range(n)])
        degrees.flags.writeable = False
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "degrees", degrees)

    @classmethod
    def _derived(cls, num_vertices: int, ell: int, edges: tuple[Edge, ...],
                 degrees: np.ndarray) -> MagneticGraph:
        """A graph derived from a validated one, its fields given as
        ``__post_init__`` would leave them: int sizes, edges of ints and
        floats, and read-only degrees summed in edge order. Nothing is
        checked, so only a derivation that keeps every invariant of its base
        may call it."""
        g = object.__new__(cls)
        for name, value in (("num_vertices", num_vertices), ("ell", ell), ("edges", edges),
                            ("degrees", degrees)):
            object.__setattr__(g, name, value)
        return g

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, float, int], ...], ...]:
        """Each vertex's oriented star in edge order, built on first read."""
        stars: list[list[tuple[int, float, int]]] = [[] for _ in range(self.num_vertices)]
        for u, v, w, s in self.edges:
            stars[u].append((v, w, s))
            stars[v].append((u, w, (self.ell - s) % self.ell))
        return tuple(map(tuple, stars))

    def neighbors(self, x: int) -> tuple[tuple[int, float, int], ...]:
        """Oriented star at ``x``: tuples (y, weight, exponent of x -> y)."""
        return self._adjacency[x]

    @property
    def max_degree(self) -> float:
        return float(self.degrees.max())

    def phase(self, s: int) -> complex:
        """Complex value of a stored exponent."""
        return complex(np.exp(2j * np.pi * (s % self.ell) / self.ell))

    def untwisted(self) -> MagneticGraph:
        """The same graph with every exponent 0; its operators are the plain ones.
        It shares the degrees and is derived without validation."""
        return MagneticGraph._derived(self.num_vertices, self.ell,
                                      tuple(e._replace(s=0) for e in self.edges), self.degrees)

    @cached_property
    def oriented_edges(self) -> OrientedEdges:
        """The oriented-edge table every operator is assembled from, built once."""
        n, ell = self.num_vertices, self.ell
        u, v, s = np.array([(e.u, e.v, e.s) for e in self.edges]).T
        w = np.array([e.w for e in self.edges])
        # Rows u -> v, v -> u interleaved in edge order; a stable sort by source
        # keeps each vertex's rows in neighbors() order.
        ends = np.column_stack((u, v)).ravel()
        order = np.argsort(ends, kind="stable")
        src = ends[order]
        dst = np.column_stack((v, u)).ravel()[order]
        exponent = np.column_stack((s, (ell - s) % ell)).ravel()[order]
        ws, d = np.repeat(w, 2)[order], self.degrees[src]
        first = np.searchsorted(src, np.arange(n))
        weight = ws / d
        present, at = np.unique(exponent, return_inverse=True)   # at most R, not ell
        phase = np.array([self.phase(k) for k in present.tolist()])[at]
        # The verify output is pinned to the bits these Laplacian entries get
        # in Python scalar arithmetic (oriented_edges_reference in the tests'
        # oracles). numpy's complex division multiplies by 1 / d_x and rounds
        # differently, so coef is w * phase / d_x written out as CPython
        # computes it: float * complex multiplies by w + 0j, and complex / float
        # divides by d_x + 0j with the ratio 0 / d_x.
        re = ws * phase.real - 0.0 * phase.imag
        im = ws * phase.imag + 0.0 * phase.real
        coef = np.empty(len(src), dtype=complex)
        coef.real = (re + im * 0.0) / d
        coef.imag = (im - re * 0.0) / d
        for arr in (src, dst, first, weight, phase, coef, exponent):
            arr.flags.writeable = False
        return OrientedEdges(src=src, dst=dst, first=first, weight=weight,
                             phase=phase, coef=coef, exponent=exponent)

    def to_document(self) -> dict:
        return {
            "ell": self.ell,
            "num_vertices": self.num_vertices,
            "edges": [{"u": e.u, "v": e.v, "w": e.w, "s": e.s} for e in self.edges],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_document())


class _Overrun(NamedTuple):
    """A budget overrun stored in place of a result. Only the message is kept:
    the exception's traceback holds frames that refer to the graph."""

    message: str


def memoised_on_graph(fn):
    """Store ``fn(g, ...)`` on ``g`` while ``g`` lives. ``fn`` takes g and at
    most one parameter, so a call is keyed by its value, by position, keyword
    or default: ``f(g, 2)`` and ``f(g, n=2.0)`` share one entry. A SizeError is
    stored as its verdict, so a search over budget runs once and every later
    call raises a fresh SizeError with the same message; any other raise
    stores nothing. Results are shared: read-only, with no reference back to
    ``g``. Builds call ``__wrapped__`` so tests can count them.
    """
    code = fn.__code__   # no keyword-only parameter, *args (0x04) or **kwargs (0x08)
    if code.co_argcount > 2 or code.co_kwonlyargcount or code.co_flags & 0x0C:
        raise TypeError(f"{fn.__qualname__} takes more than g and one parameter")
    names, default = frozenset(code.co_varnames[1:code.co_argcount]), fn.__defaults__ or ()

    @wraps(fn)
    def memoised(g: MagneticGraph, *args, **kwargs):
        if len(args) + len(kwargs) > len(names) or not kwargs.keys() <= names:
            fn(g, *args, **kwargs)   # raises the call's TypeError before the body runs
        key = (fn, *(args or tuple(kwargs.values()) or default))
        memo = g.__dict__.setdefault("_memo", {})
        if key not in memo:
            try:
                memo[key] = memoised.__wrapped__(g, *key[1:])
            except SizeError as exc:
                memo[key] = _Overrun(str(exc))
        result = memo[key]
        if isinstance(result, _Overrun):
            raise SizeError(result.message)
        return result

    return memoised


class Record:
    """Base of the flat result records (frozen dataclasses): the JSON form is
    the field list in order, tuples as lists, and a field is renamed by its
    ``"json"`` metadata, e.g. ``lam: float = field(metadata={"json": "lambda"})``.
    """

    def to_json_dict(self) -> dict:
        items = ((f.metadata.get("json", f.name), getattr(self, f.name))
                 for f in fields(self))
        return {k: list(v) if isinstance(v, tuple) else v for k, v in items}


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def load_graph(text: str) -> MagneticGraph:
    """Parse and validate a graph document (the canonical JSON format).

    Raises ParseError for structural problems and ValidationError for
    invariant violations (loops, duplicates, bad weights/exponents,
    isolated vertices, ell over 2^62, a weight too large for a float).
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:   # a JSONDecodeError, or an integer over 4300 digits
        raise ParseError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "document must be a JSON object")
    _require(set(doc) == {"ell", "num_vertices", "edges"},
             "document keys must be exactly {ell, num_vertices, edges}")
    ell, n, edges = doc["ell"], doc["num_vertices"], doc["edges"]
    _require(isinstance(ell, int) and not isinstance(ell, bool), "ell must be an integer")
    _require(isinstance(n, int) and not isinstance(n, bool), "num_vertices must be an integer")
    _require(isinstance(edges, list), "edges must be a list")
    parsed = []
    for item in edges:   # messages are formatted only on failure
        if not (isinstance(item, dict) and set(item) == {"u", "v", "w", "s"}):
            raise ParseError(f"edge entries must be objects with keys u, v, w, s: {item!r}")
        u, v, w, s = item["u"], item["v"], item["w"], item["s"]
        for name, val in (("u", u), ("v", v), ("s", s)):
            if not isinstance(val, int) or isinstance(val, bool):
                raise ParseError(f"edge field {name} must be an integer: {item!r}")
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise ParseError(f"edge weight must be a number: {item!r}")
        parsed.append(Edge(u, v, w, s))
    return MagneticGraph(num_vertices=n, ell=ell, edges=tuple(parsed))


def from_edge_list(num_vertices: int, ell: int,
                   edges: Iterable[tuple[int, int, float, int]]) -> MagneticGraph:
    """Build a validated graph from (u, v, w, s) tuples."""
    return MagneticGraph(num_vertices=num_vertices, ell=ell, edges=tuple(edges))


def _walk_lengths(g: MagneticGraph, root: int, modulus: int) -> np.ndarray:
    """BFS over (vertex, exponent mod ``modulus``) states from (root, 0).

    Entry y * modulus + e is the fewest edges of a walk from ``root`` to ``y``
    whose exponents sum to e mod ``modulus``, or -1 if there is no such walk.
    With modulus 1 these are hop distances, with modulus ell hop distances in
    the lift; components and holonomies come from ``_forest`` instead.
    """
    dist = [-1] * (g.num_vertices * modulus)
    dist[root * modulus] = 0
    queue = deque([root * modulus])
    while queue:
        state = queue.popleft()
        x, k = divmod(state, modulus)
        for y, _, s in g.neighbors(x):
            nxt = y * modulus + (k + s) % modulus
            if dist[nxt] < 0:
                dist[nxt] = dist[state] + 1
                queue.append(nxt)
    return np.array(dist, dtype=np.int64)


def _farthest_walk(g: MagneticGraph, modulus: int) -> int | float:
    """Largest entry of ``_walk_lengths`` over every root; math.inf if some
    state is unreachable from some root."""
    worst = 0
    for root in range(g.num_vertices):
        dist = _walk_lengths(g, root, modulus)
        if dist.min() < 0:
            return math.inf
        worst = max(worst, int(dist.max()))
    return worst


def hop_distances(g: MagneticGraph, source: int) -> np.ndarray:
    """Unweighted BFS hop counts from the vertex ``source`` (ValidationError if
    it is none); -1 marks unreachable vertices. Distances are edge counts, not
    weight sums: the path arguments behind the diameter bounds count edges."""
    return _walk_lengths(g, _vertex(g.num_vertices, source), 1)


@memoised_on_graph
def diameter(g: MagneticGraph) -> int | float:
    """Maximum hop distance over vertex pairs; math.inf if disconnected."""
    return _farthest_walk(g, 1)


def _forest(n: int, ell: int, triples) -> tuple[list[int], list[int]]:
    """BFS spanning forest of the edges (u, v, s), s the exponent of u -> v:
    comp[x] is the least vertex of x's component, and pot[x] the exponent sum
    mod ell along the tree path to x. Gauging the tree edges to 0 leaves an
    edge (u, v, s) the holonomy pot[u] + s - pot[v] of its fundamental cycle."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, s in triples:
        adj[u].append((v, s))
        adj[v].append((u, -s))
    comp, pot = [-1] * n, [0] * n
    for root in range(n):
        if comp[root] < 0:
            comp[root], queue = root, [root]
            for x in queue:   # the queue grows while it is read
                for y, s in adj[x]:
                    if comp[y] < 0:
                        comp[y], pot[y] = root, (pot[x] + s) % ell
                        queue.append(y)
    return comp, pot


def _groups(comp: list[int]) -> list[list[int]]:
    """The vertices of each component, ascending, ordered by least vertex."""
    groups: dict[int, list[int]] = {}
    for x, r in enumerate(comp):
        groups.setdefault(r, []).append(x)
    return list(groups.values())


def connected_components(g: MagneticGraph) -> list[list[int]]:
    """Vertex sets of the components, each sorted, ordered by least vertex."""
    return _groups(_forest(g.num_vertices, 1, [(e.u, e.v, 0) for e in g.edges])[0])


@memoised_on_graph
def is_connected(g: MagneticGraph) -> bool:
    return len(connected_components(g)) == 1


@memoised_on_graph
def signature_status(g: MagneticGraph) -> SignatureStatus:
    """Decide balancedness and entirety of the signature on a spanning forest.

    The fundamental-cycle holonomies of a component generate the subgroup
    of Z_ell its closed walks carry, gcd(ell, holonomies) Z_ell, which a gauge
    change leaves unchanged. Balanced: that subgroup is trivial in every
    component, i.e. every cycle's phase product is 1. Entire: the closed-walk
    holonomies generate Z_ell, i.e. some component's gcd is 1.
    """
    ell = g.ell
    comp, pot = _forest(g.num_vertices, ell, [(e.u, e.v, e.s) for e in g.edges])
    gcd = dict.fromkeys(comp, ell)
    for e in g.edges:
        gcd[comp[e.u]] = math.gcd(gcd[comp[e.u]], pot[e.u] + e.s - pot[e.v])
    return SignatureStatus(balanced=all(d == ell for d in gcd.values()),
                           entire=1 in gcd.values())


def random_magnetic_graph(num_vertices: int, edge_prob: float, ell: int,
                          seed: int | None = None,
                          rng: np.random.Generator | None = None,
                          weight_range: tuple[float, float] = (0.5, 2.0)) -> MagneticGraph:
    """Sample a connected random magnetic graph (fuzz corpora, CLI `generate`).

    Pairs are kept independently with probability ``edge_prob``; components are
    then stitched together with extra edges so the result is connected.
    Deterministic for a fixed seed; num_vertices and ell are never truncated.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    n, ell = _positive("num_vertices", num_vertices), _positive("ell", ell)
    if n < 2:
        raise ValidationError("random graph needs at least 2 vertices")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValidationError("edge_prob must lie in [0, 1]")

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kept = [p for p in pairs if rng.random() < edge_prob]

    # Components of the sampled pairs, linked in order of least vertex.
    present = set(kept)
    comps = _groups(_forest(n, 1, [(u, v, 0) for u, v in kept])[0])
    base = comps[0]
    for other in comps[1:]:
        while True:
            a = base[int(rng.integers(0, len(base)))]
            b = other[int(rng.integers(0, len(other)))]
            key = (min(a, b), max(a, b))
            if key not in present:
                break
        present.add(key)
        kept.append(key)
        base = sorted(base + other)

    lo, hi = weight_range
    edges = []
    for u, v in kept:
        w = float(rng.uniform(lo, hi))
        s = int(rng.integers(0, ell))
        edges.append(Edge(u, v, w, s))
    return MagneticGraph(num_vertices=n, ell=ell, edges=tuple(edges))
