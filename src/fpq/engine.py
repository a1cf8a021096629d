"""Growth invariants of tensoring functors on quiver representations.

For a representation M and a tensor product on the module category, the
functor M (x) - acts on the bounded derived category.  Its growth rate is
measured through brick sets: given a brick set X_1, ..., X_s and a shift d,
form the adjacency matrix

    A[i][j] = dim Hom(X_i, (M (x) X_j)[d]),

and take the spectral radius.  The dimension of M (x) - is the supremum of
these radii over all brick sets; the curvature replaces M by its n-th
tensor power and takes n-th roots.

Two regimes are implemented.  fpd_exact enumerates every maximal brick set
drawn from a complete list of indecomposables (supplied, or generated for
linear-chain quivers) and reports the exact maximum: restricting to maximal
sets loses nothing because the adjacency matrix of a subset is a principal
submatrix, and mixed-shift brick sets reduce to single-shift ones because
ordering members by shift makes the adjacency block triangular.  Over a
hereditary algebra the only shifts d with nonzero adjacency are 0 (hom) and
1 (ext), so other shifts report 0 directly.  fpd_lower_bound instead walks
a growing family of brick sets (e.g. band modules) and certifies a lower
bound, flagging divergence when the radii keep climbing through a hub
pattern in the adjacency.
"""

from .bricks import DerivedObject, brick_set, hom_matrix, index_of
from .errors import (
    DimensionGuardError,
    IncompleteListError,
    InputError,
    NotTypeAError,
    StructureMismatchError,
)
from .quiver import hom_dim, remember, simple, tensor_vertexwise
from .spectral import DEFAULT_TOL, integer_radius, spectral_radius
from .typea import interval_index, orientation_of

# (radius, integer_radius's proof) by (flat entries, size, tol), capped by
# remember at MAX_RADII entries.
_RADIUS_CACHE = {}
MAX_RADII = 2 ** 14

DIMENSION_GUARD = 10 ** 6


class TensorStructure:
    """A named tensor product on representations of a fixed quiver."""

    def __init__(self, name, tensor, vertexwise=False):
        self.name = name
        self.tensor = tensor
        self.is_vertexwise = vertexwise


def vertexwise():
    """The componentwise tensor product (Kronecker product on arrow maps)."""
    return TensorStructure("vertexwise", tensor_vertexwise, vertexwise=True)


def from_weak_bialgebra(spec):
    """Tensor structure induced by a coproduct on the path algebra."""
    from . import wba

    def tensor(m, n):
        return wba.tensor_wba(spec, m, n)

    return TensorStructure(f"wba:{spec.name}", tensor)


class FpdReport:
    """Outcome of a dimension computation, with enough context to replay it."""

    def __init__(self, value, mode, shift, structure, divergent=False, **extra):
        self.value = value
        self.mode = mode
        self.shift = shift
        self.structure = structure
        self.divergent = divergent
        self.extra = extra

    def describe(self):
        out = {
            "value": self.value,
            "mode": self.mode,
            "shift": self.shift,
            "structure": self.structure,
            "divergent": self.divergent,
            "field": "Q",
        }
        out.update(self.extra)
        return out

    def __repr__(self):
        flag = ", divergent" if self.divergent else ""
        return f"FpdReport({self.value}, mode={self.mode}{flag})"


def _proved_radius(flat, size, tol):
    """(radius, integer_radius's proof) of the size x size matrix whose
    row-major entries are flat, so each distinct matrix is proved once."""
    key = (flat, size, tol)
    got = _RADIUS_CACHE.get(key)
    if got is None:
        a = [list(flat[k * size:(k + 1) * size]) for k in range(size)]
        r = spectral_radius(a, tol=tol)
        got = remember(_RADIUS_CACHE, key, (r, integer_radius(a, r)), MAX_RADII)
    return got


def adjacency(members, m, shift, structure):
    """A[i][j] = dim Hom(X_i, (M (x) X_j)[shift + shift of X_j])."""
    tensored = [
        DerivedObject(structure.tensor(m, x.rep), x.shift + shift) for x in members
    ]
    return hom_matrix(members, tensored)


def _candidate_index(m, indecomposables):
    if indecomposables is not None:
        objs = [c if isinstance(c, DerivedObject) else DerivedObject(c, 0)
                for c in indecomposables]
        for k, c in enumerate(objs):
            if c.shift != 0:
                raise InputError(
                    f"candidate {k} sits at shift {c.shift}; supply module"
                    " candidates (mixed-shift sets reduce to these)"
                )
        return index_of(objs)
    try:
        word = orientation_of(m.quiver)
    except NotTypeAError as exc:
        raise IncompleteListError(
            "no candidate list given and the quiver is not a linear chain;"
            " pass a complete list of indecomposable representations"
        ) from exc
    return interval_index(word, m.quiver)


def best_brick_set(index, full, tol=DEFAULT_TOL, cap=10 ** 6):
    """Maximize the spectral radius of full (a matrix indexed by the
    candidates of a CandidateIndex) restricted to each maximal brick set.

    Returns (value, clique, sub, cliques): the largest radius, as an int
    when integer_radius proves it integral; the first maximal set reaching
    it and full restricted to that set (both None when there are none); and
    every maximal set.  A later set wins only by more than the tolerance,
    so ties keep the earliest set."""
    cliques = index.maximal_sets(cap)
    best, proof, best_clique = 0.0, 0, None  # no set: radius 0, proved
    for clique in cliques:
        flat = tuple([full[i][j] for i in clique for j in clique])
        r, p = _proved_radius(flat, len(clique), tol)
        if best_clique is None or r > best + max(tol, 1e-12) * max(1.0, best):
            best, proof, best_clique = r, p, clique
    sub = None if best_clique is None else [
        [full[i][j] for j in best_clique] for i in best_clique
    ]
    return best if proof is None else proof, best_clique, sub, cliques


def fpd_exact(m, shift=0, structure=None, indecomposables=None, cap=10 ** 6,
              tol=DEFAULT_TOL):
    """Exact dimension of M (x) - composed with [shift].

    Maximizes the adjacency spectral radius over all maximal brick sets
    drawn from a complete candidate list of indecomposables.  For linear
    chains the list of interval representations is generated; other quivers
    must supply one (IncompleteList otherwise).  The value is returned as
    an int when integer_radius proves the witness radius integral.
    """
    structure = structure or vertexwise()
    base = {
        "quiver": m.quiver.to_dict(),
        "object_dims": list(m.dims),
        "tol": tol,
    }
    if shift not in (0, 1):
        return FpdReport(0, "exact", shift, structure.name, witness=None,
                         adjacency=None, integral=True, candidates=0, **base)
    index = _candidate_index(m, indecomposables)
    full = hom_matrix(index.objs, index.tensored(m, structure.tensor, shift))
    value, clique, adj, cliques = best_brick_set(index, full, tol, cap)
    witness = None if clique is None else [index.objs[i].describe() for i in clique]
    return FpdReport(
        value, "exact", shift, structure.name,
        witness=witness, adjacency=adj, integral=isinstance(value, int),
        candidates=len(index.objs), brick_sets=len(cliques), **base,
    )


def _hub_index(a):
    """Index whose row and column are entrywise positive, or None."""
    s = len(a)
    for b in range(s):
        if all(a[b][j] > 0 for j in range(s)) and all(a[i][b] > 0 for i in range(s)):
            return b
    return None


def fpd_lower_bound(m, shift=0, structure=None, family=None, budget=12,
                    tol=DEFAULT_TOL):
    """Certified lower bound for the dimension of M (x) - composed [shift].

    Singleton brick sets at every vertex simple are always included (for
    the componentwise tensor this already certifies max_v dim M_v).  family,
    if given, maps a size to a list of DerivedObjects and is evaluated at
    sizes 1..budget; each returned set is verified to be a brick set.  The
    report is flagged divergent when the largest family set (size >= 3) has
    a hub member receiving and emitting maps from every member and the
    radius still grew strictly in the last step.
    """
    structure = structure or vertexwise()
    best, proof, floor_witness = 0.0, 0, None  # no simple: radius 0, proved
    for v in range(1, m.quiver.n + 1):
        s = DerivedObject(simple(m.quiver, v), 0, label=f"S({v})")
        a = adjacency([s], m, shift, structure)
        r, p = _proved_radius((a[0][0],), 1, tol)
        if r > best:
            best, proof, floor_witness = r, p, s.describe()
    floor = best
    sequence = []
    values = []
    last = None
    if family is not None:
        for size in range(1, budget + 1):
            members = family(size)
            if len(members) != size:
                raise InputError(
                    f"family produced {len(members)} members for size {size}"
                )
            verified = brick_set(members)
            a = adjacency(verified.members, m, shift, structure)
            r, p = _proved_radius(tuple([x for row in a for x in row]), size, tol)
            if r > best:
                best, proof = r, p
            values.append(r)
            sequence.append({"size": size, "radius": r})
            last = (verified, a)
    divergent = False
    if last is not None and len(values) >= 2 and budget >= 3:
        hub = _hub_index(last[1])
        if hub is not None and values[-1] > values[-2] + 1e-9:
            divergent = True
    extra = {
        "quiver": m.quiver.to_dict(),
        "object_dims": list(m.dims),
        "tol": tol,
        "floor": floor,
        "floor_witness": floor_witness,
        "family_sequence": sequence,
        "integral": proof is not None,
    }
    if last is not None:
        extra["witness"] = last[0].describe()
        extra["adjacency"] = last[1]
    return FpdReport(
        best if proof is None else proof,
        "lower_bound", shift, structure.name, divergent=divergent, **extra,
    )


def fpv_closed_form(m, structure=None):
    """Curvature of M (x) - for the componentwise tensor: max vertex dim."""
    structure = structure or vertexwise()
    if not structure.is_vertexwise:
        raise StructureMismatchError(
            "closed-form curvature is only available for the componentwise"
            f" tensor, not {structure.name!r}"
        )
    return max(m.dims) if m.dims else 0


def fpv_empirical(m, structure=None, n_max=10, guard=DIMENSION_GUARD):
    """Curvature estimate from iterated tensor powers against vertex simples.

    For each vertex i, tensors M onto S(i) n_max times and measures
    a_n = dim Hom(S(i), M^{(x)n} (x) S(i)); the vertex estimate is
    a_{n_max}^(1/n_max), reported as an exact int when the root
    round-trips.  Returns a report with per-vertex sequences and the max.
    """
    structure = structure or vertexwise()
    per_vertex = []
    best = 0
    for v in range(1, m.quiver.n + 1):
        s = simple(m.quiver, v)
        t = s
        seq = []
        for _ in range(n_max):
            t = structure.tensor(m, t)
            if t.total_dim() > guard:
                raise DimensionGuardError(
                    f"tensor power exceeded {guard} total dimensions at"
                    f" vertex {v}"
                )
            seq.append(hom_dim(s, t))
        a = seq[-1]
        if a == 0:
            value = 0
        else:
            root = round(a ** (1.0 / n_max))
            value = root if root ** n_max == a else a ** (1.0 / n_max)
        per_vertex.append({"vertex": v, "sequence": seq, "value": value})
        if value > best:
            best = value
    return {
        "value": best,
        "n_max": n_max,
        "structure": structure.name,
        "per_vertex": per_vertex,
        "quiver": m.quiver.to_dict(),
        "object_dims": list(m.dims),
    }
