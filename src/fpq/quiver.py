"""Finite acyclic quivers and their rational representations.

Conventions
-----------
* Vertices are 1..n.  Arrows are (id, source, target) with unique string
  ids; parallel arrows are allowed, loops and directed cycles are not.
* A representation assigns dims[v] to each vertex and to each arrow
  a: s -> t a matrix of shape (dims[t], dims[s]) acting on column vectors,
  stored in the quiver's arrow order.
* Entries are canonical (see exact.frac): an int when integral, else a
  Fraction; everything here is exact.

The hom-dimension computation sets up the commuting-square system
f_t . M_a = N_a . f_s over the per-vertex unknowns f_v from the maps'
nonzeros and ranks it by exact elimination.  hom_row, behind hom_dim,
dim_ext1 and bricks.hom_matrix, is the one reader and writer of HOM_MEMO,
which holds Hom and Ext^1 dimensions by (id m, id n, degree).

Identity
--------
Quivers and representations are immutable, and each is interned to an id
object keyed by its content: equality, hashing and the memos all compare
ids, by identity, so a memo hit hashes two ids instead of every matrix
entry.  Interning is lazy (the first hash, comparison or memo lookup), so
a representation that is only built and read never enters a table.  The
intern tables hold their ids weakly: an entry lives exactly while a live
object or a memo key holds its id, so equal live objects share one id, a
memo entry is found again by an equal object built after the first died,
and the memo caps bound the tables.  Each capped memo fills and empties
through remember.  Quiver(...) and Representation(...) check and coerce
their own input, each value once; from_dict only reads the JSON form.  The
builders whose output is well formed by construction from checked
representations return through Representation._trusted.
"""

import graphlib
import random
import sys
import weakref
from typing import NamedTuple

from . import exact
from .errors import (
    BadArrowError,
    CyclicQuiverError,
    DimensionGuardError,
    DuplicateLabelError,
    InputError,
    ShapeError,
    WrongQuiverError,
)


def _is_int(x):
    """Whether a parsed JSON value is an integer (not a bool or a float)."""
    return isinstance(x, int) and not isinstance(x, bool)


# Limits on input, checked before anything is allocated (a quiver's by Quiver, a
# representation's by from_dict, as library callers build larger ones): far
# above what a hom or tensor computation finishes on, far below what exhausts
# memory.  MAX_MAP_ENTRIES bounds the sum of dims[t] * dims[s].
MAX_VERTICES = 10 ** 4
MAX_ARROWS = 10 ** 5
MAX_DIM = 10 ** 4
MAX_MAP_ENTRIES = 10 ** 6
_ZERO = object()  # a map a dict leaves out, zero-filled at its shape


class _Id:
    """An interned id, compared and hashed by identity; a copy is the id."""
    __slots__ = ("__weakref__",)
    __copy__ = __deepcopy__ = lambda self, memo=None: self


_QUIVER_IDS = weakref.WeakValueDictionary()
_REP_IDS = weakref.WeakValueDictionary()


def _intern(table, content):
    """The id of content in table, taking a fresh one on first sight."""
    got = table.get(content)
    if got is None:
        got = table[content] = _Id()
    return got


def remember(table, key, value, cap):
    """table[key] = value, the table emptied in place first when it holds
    cap entries; an emptied entry is rebuilt the same when next asked for.
    Returns value."""
    if len(table) >= cap:
        table.clear()
    table[key] = value
    return value


class Arrow(NamedTuple):
    id: str
    source: int
    target: int


class Quiver:
    """Finite quiver on vertices 1..n with labeled arrows, acyclic."""

    def __init__(self, n, arrows):
        arrows = tuple(Arrow(str(a[0]), a[1], a[2]) for a in arrows)
        if not _is_int(n) or not all(_is_int(s) and _is_int(t) for _, s, t in arrows):
            raise InputError(
                "malformed quiver object: vertex count and arrow ends must be integers"
            )
        if n > MAX_VERTICES or len(arrows) > MAX_ARROWS:
            raise InputError(f"quiver too large: at most {MAX_VERTICES} vertices"
                             f" and {MAX_ARROWS} arrows")
        self.n, self.arrows = n, arrows
        self._index = {a.id: k for k, a in enumerate(self.arrows)}
        self._id = self._opposite = None
        validate_quiver(self)

    def arrow_index(self, arrow_id):
        return self._index[arrow_id]

    def _ident(self):
        if self._id is None:
            self._id = _intern(_QUIVER_IDS, (self.n, self.arrows))
        return self._id

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Quiver) and self._ident() is other._ident()
        )

    def __hash__(self):
        return hash(self._ident())

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
    if all(a.source < a.target for a in q.arrows):
        return True  # every arrow runs up the vertex order: no cycle
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
        """dims: a list or tuple of ints, one per vertex.  maps: dict
        arrow_id -> matrix, or sequence in arrow order, each as
        exact.mat_from reads it; a matrix a dict leaves out is zero."""
        if type(dims) not in (list, tuple) or not all(map(_is_int, dims)):
            raise InputError(
                "malformed representation object: dims must be a list of integers"
            )
        self.quiver, self.dims = quiver, tuple(dims)
        if len(self.dims) != quiver.n:
            raise ShapeError(
                f"dimension vector has {len(self.dims)} entries for {quiver.n} vertices"
            )
        if any(d < 0 for d in self.dims):
            raise ShapeError("negative dimension")
        if isinstance(maps, dict):
            if not maps.keys() <= quiver._index.keys():
                unknown = sorted(maps.keys() - quiver._index.keys(), key=str)
                raise InputError(f"maps refer to unknown arrows: {unknown}")
            maps = [maps.get(a.id, _ZERO) for a in quiver.arrows]
        else:
            maps = list(maps)
            if len(maps) != len(quiver.arrows):
                raise ShapeError("one matrix per arrow required")
        frozen = []
        for a, m in zip(quiver.arrows, maps):
            rows, cols = self.dims[a.target - 1], self.dims[a.source - 1]
            try:
                m = exact.zeros(rows, cols) if m is _ZERO else exact.mat_from(m)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise InputError(f"malformed representation object: map for arrow"
                                 f" {a.id}: {exc}") from exc
            if len(m) != rows or (rows and any(len(r) != cols for r in m)):
                raise ShapeError(
                    f"map for arrow {a.id} must be {rows}x{cols} "
                    f"(target dim x source dim)"
                )
            frozen.append(m)
        self.maps = tuple(frozen)
        self._id = None

    @classmethod
    def _trusted(cls, quiver, dims, maps):
        """No checks: dims a tuple of ints, maps a tuple of frozen matrices
        of canonical entries (see exact.frac) in arrow order, of the right
        shapes by construction.  Only tensor_vertexwise, dual and
        wba.tensor_wba, which build from checked representations, call it;
        a second check would repeat the first."""
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
            isinstance(other, Representation) and self.key() is other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def to_dict(self):
        """The JSON form, entries as strings; DimensionGuardError when an
        entry has more digits than Python's limit on int-to-str conversion
        (sys.get_int_max_str_digits), whatever the inputs' digits were."""
        try:
            maps = {a.id: [[str(x) for x in row] for row in m]
                    for a, m in zip(self.quiver.arrows, self.maps)}
        except ValueError:
            raise DimensionGuardError(
                f"a map entry has more than {sys.get_int_max_str_digits()} digits,"
                f" Python's limit on converting an int to a string") from None
        return {"quiver": self.quiver.to_dict(), "dims": list(self.dims), "maps": maps}

    @classmethod
    def from_dict(cls, data, quiver=None):
        """Read a JSON object over its embedded quiver, unless quiver is
        given.  Besides the JSON shapes, only the size limits are checked
        here: they must be before the constructor zero-fills maps."""
        if not isinstance(data, dict):
            raise InputError("a representation must be a JSON object")
        if quiver is None:
            if "quiver" not in data:
                raise InputError("representation object needs an embedded quiver")
            quiver = Quiver.from_dict(data["quiver"])
        dims, maps = data.get("dims"), data.get("maps", {})
        if not isinstance(maps, dict):
            raise InputError("malformed representation object: maps must be an object")
        if isinstance(dims, list) and all(map(_is_int, dims)) and (
            max(dims, default=0) > MAX_DIM or len(dims) == quiver.n and sum(
                dims[a.target - 1] * dims[a.source - 1] for a in quiver.arrows
            ) > MAX_MAP_ENTRIES
        ):
            raise InputError(f"representation too large: each dimension at most"
                             f" {MAX_DIM}, at most {MAX_MAP_ENTRIES} map entries")
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
    one = [[1]]
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
    f_t . M_a - N_a . f_s (shape n.dims[t] x m.dims[s]), filled from the
    nonzeros of M_a and N_a alone; zero equations are dropped, none is built
    without unknowns, and the two terms never share an unknown (s != t).
    DimensionGuardError before any row when equations times unknowns
    exceeds MAX_HOM_SYSTEM, so the rows held stay under that budget."""
    offsets = [0]
    for dn, dm in zip(n.dims, m.dims):
        offsets.append(offsets[-1] + dn * dm)
    total = offsets.pop()
    if not total:
        return [], 0
    equations = sum(n.dims[a.target - 1] * m.dims[a.source - 1]
                    for a in m.quiver.arrows)
    if equations * total > MAX_HOM_SYSTEM:
        raise DimensionGuardError(
            f"hom system of {equations} equations in {total} unknowns is above"
            f" the limit of {MAX_HOM_SYSTEM} for their product")
    rows = []
    for a, ma, na in zip(m.quiver.arrows, m.maps, n.maps):
        s, t = a.source - 1, a.target - 1
        ds_m, dt_m, dt_n = m.dims[s], m.dims[t], n.dims[t]
        if not ds_m or not dt_n:
            continue  # the block has no entries
        block = [{} for _ in range(dt_n * ds_m)]  # entry (p, q) at p * ds_m + q
        left, right = offsets[t], offsets[s]
        for r, m_row in enumerate(ma):  # f_t[p][r] * M_a[r][q]
            for q, x in enumerate(m_row):
                if x:
                    for p in range(dt_n):
                        block[p * ds_m + q][left + p * dt_m + r] = x
        for p, n_row in enumerate(na):  # -N_a[p][r] * f_s[r][q]
            for r, x in enumerate(n_row):
                if x:
                    for q in range(ds_m):
                        block[p * ds_m + q][right + r * ds_m + q] = -x
        rows += filter(None, block)
    return rows, total


# Derived hom dimensions by (id m, id n, d), d = 0 for Hom and 1 for Ext^1, capped
# by remember in place; hom_row alone reads and writes it.  See _hom_system for
# MAX_HOM_SYSTEM, the budget on equations times unknowns of one system.
HOM_MEMO = {}
MAX_HOM_PAIRS = 2 ** 16
MAX_HOM_SYSTEM = 2 * 10 ** 6


def hom_row(m, cols, shift):
    """[dim Hom(m[shift], n[t]) for (n.key(), t, n) in cols]: Hom(m, n) at
    t = shift, Ext^1(m, n) = Hom(m, n) - <dim m, dim n> (hereditary) at
    t = shift + 1, and 0 otherwise.  A hit is one dict read per entry: the
    quivers are compared only where a system is built, and a
    representation's id includes its quiver's id.  hom - ext = <dim m, dim n>
    holds by construction; checking it only shows Ext^1 >= 0."""
    a = m.key()
    row = [HOM_MEMO.get((a, b, t - shift)) for b, t, _ in cols]
    if None not in row:
        return row
    for k, (b, t, n) in enumerate(cols):
        if row[k] is not None:
            continue
        d = t - shift
        val = HOM_MEMO.get((a, b, 0)) if d in (0, 1) else 0
        if val is None:
            if m.quiver != n.quiver:
                raise WrongQuiverError("representations live over different quivers")
            rows, total = _hom_system(m, n)
            val = remember(HOM_MEMO, (a, b, 0), total - exact.rank(rows, total),
                           MAX_HOM_PAIRS)
        if d == 1:
            val -= euler_form(m.quiver, m.dims, n.dims)
            if val < 0:
                raise ShapeError(
                    f"negative ext dimension {val}; hom/euler bookkeeping is broken")
            remember(HOM_MEMO, (a, b, 1), val, MAX_HOM_PAIRS)
        row[k] = val
    return row


def hom_dim(m, n):
    """dim Hom(m, n), exactly (see hom_row)."""
    return hom_row(m, [(n.key(), 0, n)], 0)[0]


def dim_ext1(m, n):
    """dim Ext^1(m, n) = dim Hom(m, n) - <dim m, dim n> (see hom_row)."""
    return hom_row(m, [(n.key(), 1, n)], 0)[0]


def tensor_vertexwise(m, n):
    """Vertex-wise tensor product: dims multiply per vertex and each arrow
    acts by the Kronecker product (left factor slowest).  Raises
    DimensionGuardError, before allocating, when the product would have
    more than MAX_MAP_ENTRIES map entries."""
    if m.quiver != n.quiver:
        raise WrongQuiverError("representations live over different quivers")
    q = m.quiver
    dims = tuple([dm * dn for dm, dn in zip(m.dims, n.dims)])
    if sum(dims[a.target - 1] * dims[a.source - 1] for a in q.arrows) \
            > MAX_MAP_ENTRIES:
        raise DimensionGuardError(
            f"tensor product would have more than {MAX_MAP_ENTRIES} map entries"
        )
    maps = tuple([
        exact.kron(ma, na, (m.dims[a.target - 1], m.dims[a.source - 1]),
                   (n.dims[a.target - 1], n.dims[a.source - 1]))
        for a, ma, na in zip(q.arrows, m.maps, n.maps)
    ])
    return Representation._trusted(q, dims, maps)


def opposite(q):
    """Quiver with every arrow reversed (same ids, same order), built once
    per instance; the opposite of the opposite is q itself.  Reversing
    keeps q's checked arrows valid, so it is built without validate_quiver."""
    if q._opposite is None:
        op = Quiver.__new__(Quiver)
        op.n, op._index, op._id, op._opposite = q.n, q._index, None, q
        op.arrows = tuple(Arrow(a.id, a.target, a.source) for a in q.arrows)
        q._opposite = op
    return q._opposite


def dual(m):
    """The dual representation over the opposite quiver: vertex spaces are
    dualized and each reversed arrow acts by the transpose."""
    maps = tuple([
        tuple(zip(*mat)) if mat else ((),) * m.dims[a.source - 1]
        for a, mat in zip(m.quiver.arrows, m.maps)
    ])
    return Representation._trusted(opposite(m.quiver), m.dims, maps)


def random_representation(q, max_dim, seed):
    """Seeded random representation: dims uniform in 0..max_dim, entries
    uniform small integers in -2..2."""
    rng = random.Random(seed)
    dims = [rng.randint(0, max_dim) for _ in range(q.n)]
    maps = []
    for a in q.arrows:
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        maps.append(
            [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
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
