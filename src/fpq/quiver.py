"""Finite acyclic quivers and their rational representations.

Conventions
-----------
* Vertices are 1..n.  Arrows are (id, source, target) with unique string
  ids; parallel arrows are allowed, loops and directed cycles are not.
* A representation assigns dims[v] to each vertex and to each arrow
  a: s -> t a matrix of shape (dims[t], dims[s]) acting on column vectors,
  stored in the quiver's arrow order.
* All entries are Fractions; everything here is exact.

The hom-dimension computation sets up the commuting-square system
f_t . M_a = N_a . f_s over the per-vertex unknowns f_v and ranks it by
exact elimination.  Hom dimensions are memoized per pair of
representations, which the higher layers lean on heavily.

Identity
--------
Quivers and representations are immutable, and each is interned to a small
int id keyed by its content: equality, hashing and the hom-dimension cache
all compare ids, so a cache hit hashes two ints instead of every matrix
entry.  Interning is lazy (the first hash, comparison or cache lookup), so
a representation that is only built and read never enters the table.  Ids
come from a counter, never from a table's size, so two contents can never
share one.
"""

import graphlib
import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from . import exact
from .errors import (
    BadArrowError,
    CyclicQuiverError,
    DuplicateLabelError,
    InputError,
    ShapeError,
    WrongQuiverError,
)


def _is_int(x):
    """Whether a parsed JSON value is an integer (not a bool or a float)."""
    return isinstance(x, int) and not isinstance(x, bool)


# Limits on JSON input, which from_dict checks before allocating anything:
# far above what a hom or tensor computation finishes on, far below what
# exhausts memory.  MAX_MAP_ENTRIES bounds the sum of dims[t] * dims[s].
MAX_VERTICES = 10 ** 4
MAX_ARROWS = 10 ** 5
MAX_DIM = 10 ** 4
MAX_MAP_ENTRIES = 10 ** 6

_IDS = itertools.count()
_QUIVER_IDS = {}
_REP_IDS = {}


def _intern(table, content):
    """The id of content in table, taking a fresh one on first sight."""
    got = table.get(content)
    if got is None:
        got = table.setdefault(content, next(_IDS))
    return got


class Arrow(NamedTuple):
    id: str
    source: int
    target: int


class Quiver:
    """Finite quiver on vertices 1..n with labeled arrows, acyclic."""

    def __init__(self, n, arrows):
        self.n = int(n)
        self.arrows = tuple(Arrow(str(a[0]), int(a[1]), int(a[2])) for a in arrows)
        self._index = {a.id: k for k, a in enumerate(self.arrows)}
        self._id = None
        validate_quiver(self)

    def arrow_index(self, arrow_id):
        return self._index[arrow_id]

    def _ident(self):
        if self._id is None:
            self._id = _intern(_QUIVER_IDS, (self.n, self.arrows))
        return self._id

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Quiver) and self._ident() == other._ident()
        )

    def __hash__(self):
        return self._ident()

    def __repr__(self):
        arr = ", ".join(f"{a.id}:{a.source}->{a.target}" for a in self.arrows)
        return f"Quiver({self.n}; {arr})"

    def to_dict(self):
        return {
            "vertices": self.n,
            "arrows": [
                {"id": a.id, "from": a.source, "to": a.target} for a in self.arrows
            ],
        }

    @classmethod
    def from_dict(cls, data):
        try:
            n = data["vertices"]
            arrows = [(a["id"], a["from"], a["to"]) for a in data.get("arrows", [])]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed quiver object: {exc}") from exc
        if not _is_int(n) or not all(_is_int(s) and _is_int(t) for _, s, t in arrows):
            raise InputError(
                "malformed quiver object: vertex count and arrow ends must be integers"
            )
        if n > MAX_VERTICES or len(arrows) > MAX_ARROWS:
            raise InputError(f"quiver too large: at most {MAX_VERTICES} vertices"
                             f" and {MAX_ARROWS} arrows")
        return cls(n, arrows)


def validate_quiver(q):
    """Raise CyclicQuiver/BadArrow/DuplicateLabel when q is not a finite
    acyclic multidigraph on 1..n with unique arrow ids."""
    if q.n < 0:
        raise BadArrowError(f"vertex count must be nonnegative, got {q.n}")
    seen = set()
    for a in q.arrows:
        if not (1 <= a.source <= q.n) or not (1 <= a.target <= q.n):
            raise BadArrowError(
                f"arrow {a.id}: endpoints ({a.source}, {a.target}) outside 1..{q.n}"
            )
        if a.source == a.target:
            raise CyclicQuiverError(f"arrow {a.id} is a loop at vertex {a.source}")
        if a.id in seen:
            raise DuplicateLabelError(f"duplicate arrow id {a.id!r}")
        seen.add(a.id)
    ts = graphlib.TopologicalSorter({v: set() for v in range(1, q.n + 1)})
    for a in q.arrows:
        ts.add(a.target, a.source)
    try:
        list(ts.static_order())
    except graphlib.CycleError as exc:
        raise CyclicQuiverError(f"quiver has a directed cycle: {exc.args[1]}") from exc
    return True


class Representation:
    """A representation of a quiver; immutable once constructed."""

    def __init__(self, quiver, dims, maps):
        """maps: dict arrow_id -> matrix, or sequence in arrow order.
        Matrices for arrows with a zero-dimensional end may be omitted
        (from a dict) or given as empty lists."""
        self.quiver = quiver
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != quiver.n:
            raise ShapeError(
                f"dimension vector has {len(self.dims)} entries for {quiver.n} vertices"
            )
        if any(d < 0 for d in self.dims):
            raise ShapeError("negative dimension")
        if isinstance(maps, dict):
            seq = [maps.get(a.id) for a in quiver.arrows]
        else:
            seq = list(maps)
            if len(seq) != len(quiver.arrows):
                raise ShapeError("one matrix per arrow required")
        frozen = []
        for a, m in zip(quiver.arrows, seq):
            rows, cols = self.dims[a.target - 1], self.dims[a.source - 1]
            if m is None:
                m = exact.zeros(rows, cols)
            m = exact.mat_from(m)
            if len(m) != rows or (rows and any(len(r) != cols for r in m)):
                raise ShapeError(
                    f"map for arrow {a.id} must be {rows}x{cols} "
                    f"(target dim x source dim)"
                )
            frozen.append(exact.freeze(m))
        self.maps = tuple(frozen)
        self._id = None

    @classmethod
    def _trusted(cls, quiver, dims, maps):
        """No checks: dims a tuple of ints, maps a tuple of frozen Fraction
        matrices in arrow order, of the right shapes by construction."""
        rep = cls.__new__(cls)
        rep.quiver, rep.dims, rep.maps, rep._id = quiver, dims, maps, None
        return rep

    def map_for(self, arrow_id):
        return self.maps[self.quiver.arrow_index(arrow_id)]

    def total_dim(self):
        return sum(self.dims)

    def key(self):
        """The interned id: equal representations, and only they, share it."""
        if self._id is None:
            self._id = _intern(
                _REP_IDS, (self.quiver._ident(), self.dims, self.maps)
            )
        return self._id

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Representation) and self.key() == other.key()
        )

    def __hash__(self):
        return self.key()

    def __repr__(self):
        return f"Representation(dims={list(self.dims)})"

    def to_dict(self, include_quiver=True):
        out = {}
        if include_quiver:
            out["quiver"] = self.quiver.to_dict()
        out["dims"] = list(self.dims)
        out["maps"] = {
            a.id: [[str(x) for x in row] for row in m]
            for a, m in zip(self.quiver.arrows, self.maps)
        }
        return out

    @classmethod
    def from_dict(cls, data, quiver=None):
        if quiver is None:
            if "quiver" not in data:
                raise InputError("representation object needs an embedded quiver")
            quiver = Quiver.from_dict(data["quiver"])
        try:
            dims = data["dims"]
            maps = data.get("maps", {})
            if not isinstance(maps, dict):
                raise InputError(
                    "malformed representation object: maps must be an object"
                )
            maps = {
                aid: [[exact.frac(x) for x in row] for row in m]
                for aid, m in maps.items()
            }
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed representation object: {exc}") from exc
        if not isinstance(dims, list) or not all(_is_int(d) for d in dims):
            raise InputError(
                "malformed representation object: dims must be a list of integers"
            )
        if any(d > MAX_DIM for d in dims) or len(dims) == quiver.n and sum(
            dims[a.target - 1] * dims[a.source - 1] for a in quiver.arrows
        ) > MAX_MAP_ENTRIES:
            raise InputError(f"representation too large: each dimension at most"
                             f" {MAX_DIM}, at most {MAX_MAP_ENTRIES} map entries")
        unknown = set(maps) - {a.id for a in quiver.arrows}
        if unknown:
            raise InputError(f"maps refer to unknown arrows: {sorted(unknown)}")
        return cls(quiver, dims, maps)


def zero_rep(q):
    return Representation(q, [0] * q.n, {})


def simple(q, v):
    """The simple representation S(v): k at vertex v, zero elsewhere."""
    if not (1 <= v <= q.n):
        raise InputError(f"vertex {v} outside 1..{q.n}")
    dims = [1 if i == v else 0 for i in range(1, q.n + 1)]
    return Representation(q, dims, {})


def identity_rep(q):
    """k at every vertex with every arrow acting as the identity (the unit
    for the vertex-wise tensor product)."""
    one = [[Fraction(1)]]
    return Representation(q, [1] * q.n, {a.id: one for a in q.arrows})


def euler_form(q, x, y):
    """<x, y> = sum_v x_v y_v - sum_{a: s->t} x_s y_t (hereditary Euler form)."""
    if len(x) != q.n or len(y) != q.n:
        raise ShapeError("dimension vectors must have one entry per vertex")
    val = sum(a * b for a, b in zip(x, y))
    for a in q.arrows:
        val -= x[a.source - 1] * y[a.target - 1]
    return val


def _hom_system(m, n):
    """(sparse rows {unknown: coefficient}, number of unknowns) of the
    linear system in the unknowns vec(f_v), row-major.

    Unknown layout: f_1 then f_2 ... ; f_v has shape (n.dims[v], m.dims[v])
    flattened row-major.  One equation per arrow a: s->t and per entry of
    f_t . M_a - N_a . f_s (shape n.dims[t] x m.dims[s]); zero equations are
    dropped.  The two terms never share an unknown, since s != t."""
    offsets = []
    total = 0
    for v in range(m.quiver.n):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]
    rows = []
    for idx, a in enumerate(m.quiver.arrows):
        s, t = a.source - 1, a.target - 1
        ma = m.maps[idx]  # m.dims[t] x m.dims[s]
        na = n.maps[idx]  # n.dims[t] x n.dims[s]
        dt_n, ds_m = n.dims[t], m.dims[s]
        dt_m, ds_n = m.dims[t], n.dims[s]
        for p in range(dt_n):
            # (f_t . M_a)[p][q] = sum_r f_t[p][r] * M_a[r][q]
            base_t = offsets[t] + p * dt_m
            for qq in range(ds_m):
                row = {base_t + r: ma[r][qq] for r in range(dt_m) if ma[r][qq]}
                # (N_a . f_s)[p][q] = sum_r N_a[p][r] * f_s[r][q]
                for r in range(ds_n):
                    c = na[p][r]
                    if c:
                        row[offsets[s] + r * ds_m + qq] = -c
                if row:
                    rows.append(row)
    return rows, total


_HOM_DIM_CACHE = {}


def hom_dim(m, n):
    """dim Hom(m, n), exactly."""
    if m.quiver != n.quiver:
        raise WrongQuiverError("representations live over different quivers")
    key = (m.key(), n.key())
    got = _HOM_DIM_CACHE.get(key)
    if got is not None:
        return got
    rows, total = _hom_system(m, n)
    d = total - exact.rank(rows, total)
    _HOM_DIM_CACHE[key] = d
    return d


def dim_ext1(m, n):
    """dim Ext^1(m, n) = dim Hom(m, n) - <dim m, dim n> (hereditary).

    Derived from hom_dim, so hom - ext = <dim m, dim n> holds by
    construction; checking that identity only shows Ext^1 >= 0."""
    val = hom_dim(m, n) - euler_form(m.quiver, m.dims, n.dims)
    if val < 0:
        raise ShapeError(
            f"negative ext dimension {val}; hom/euler bookkeeping is broken"
        )
    return val


def tensor_vertexwise(m, n):
    """Vertex-wise tensor product: dims multiply per vertex and each arrow
    acts by the Kronecker product (left factor slowest)."""
    if m.quiver != n.quiver:
        raise WrongQuiverError("representations live over different quivers")
    q = m.quiver
    dims = [dm * dn for dm, dn in zip(m.dims, n.dims)]
    maps = []
    for idx, a in enumerate(q.arrows):
        s, t = a.source - 1, a.target - 1
        maps.append(
            exact.kron(
                m.maps[idx],
                n.maps[idx],
                sa=(m.dims[t], m.dims[s]),
                sb=(n.dims[t], n.dims[s]),
            )
        )
    return Representation(q, dims, maps)


def opposite(q):
    """Quiver with every arrow reversed (same ids, same order)."""
    return Quiver(q.n, [(a.id, a.target, a.source) for a in q.arrows])


def dual(m):
    """The dual representation over the opposite quiver: vertex spaces are
    dualized and each reversed arrow acts by the transpose."""
    q = m.quiver
    maps = {}
    for idx, a in enumerate(q.arrows):
        s, t = a.source - 1, a.target - 1
        maps[a.id] = exact.transpose(m.maps[idx], rows=m.dims[t], cols=m.dims[s])
    return Representation(opposite(q), m.dims, maps)


def random_representation(q, max_dim, seed):
    """Seeded random representation: dims uniform in 0..max_dim, entries
    uniform small integers in -2..2."""
    rng = random.Random(seed)
    dims = [rng.randint(0, max_dim) for _ in range(q.n)]
    maps = []
    for a in q.arrows:
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        maps.append(
            [[Fraction(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        )
    return Representation(q, dims, maps)


def random_acyclic_quiver(n_max, seed):
    """Seeded random acyclic quiver: 2..n_max vertices, 1..2n arrows drawn
    forward along the vertex order (parallel arrows allowed)."""
    rng = random.Random(seed)
    n = rng.randint(2, max(2, n_max))
    count = rng.randint(1, 2 * n)
    arrows = []
    for k in range(1, count + 1):
        s = rng.randint(1, n - 1)
        t = rng.randint(s + 1, n)
        arrows.append((f"a{k}", s, t))
    return Quiver(n, arrows)
