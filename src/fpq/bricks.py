"""Bricks, brick sets, and their enumeration.

Objects live in the bounded derived category of a hereditary path algebra,
so every object is a shifted representation; a DerivedObject is a pair
(representation, integer shift).  Between shifted representations

    Hom(M[a], N[b]) = Hom(M, N)   if b = a,
                      Ext^1(M, N) if b = a + 1,
                      0            otherwise,

which is what derived_hom_dim computes; hom_matrix(xs, ys) is the one place
these dimensions are assembled into a matrix.  A brick has a one-dimensional
endomorphism space; a brick set is a finite set of bricks with vanishing
hom spaces in both directions between distinct members, so a list is a
brick set exactly when its hom matrix with itself is the identity.  On a
candidate list the brick test is that matrix's diagonal and the
compatibility graph (edge = hom vanishes both ways) is its zeros.

maximal_brick_sets runs a Bron-Kerbosch search with pivoting over the
compatibility graph.  Enumeration order is deterministic: members of each
set ascend by candidate index and the sets are reported sorted
lexicographically.  The search counts expansions and raises CapExceeded
(carrying the partial result) instead of truncating.  Each candidate list
is enumerated once per cap: the sets are memoized by the candidates' keys.
"""

from .errors import BadPathsError, CapExceededError, InputError, WrongQuiverError
from .quiver import Representation, dim_ext1, hom_dim


class DerivedObject:
    """A representation placed at an integer shift, optionally labeled."""

    def __init__(self, rep, shift=0, label=None):
        self.rep = rep
        self.shift = int(shift)
        self.label = label

    def key(self):
        return (self.rep.key(), self.shift)

    def __eq__(self, other):
        return isinstance(other, DerivedObject) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        tag = self.label or f"dims={list(self.rep.dims)}"
        return f"DerivedObject({tag}, shift={self.shift})"

    def describe(self):
        out = {"dims": list(self.rep.dims), "shift": self.shift}
        if self.label:
            out["label"] = self.label
        return out


def derived_hom_dim(x, y):
    """Hom dimension between shifted representations (see module docstring)."""
    d = y.shift - x.shift
    if d == 0:
        return hom_dim(x.rep, y.rep)
    if d == 1:
        return dim_ext1(x.rep, y.rep)
    return 0


def hom_matrix(xs, ys):
    """[i][j] = derived_hom_dim(xs[i], ys[j]).  With ys = xs it is the
    identity exactly for a brick set; with ys the images of xs under a
    functor it is that functor's adjacency matrix on xs."""
    return [[derived_hom_dim(x, y) for y in ys] for x in xs]


class BrickSet:
    """A verified brick set with its hom-dimension certificate matrix
    (entry [i][j] = derived hom dimension from member i to member j;
    the identity matrix for a genuine brick set).  Raises InputError when
    the certificate is not the identity."""

    def __init__(self, members, certificate):
        self.members = list(members)
        self.certificate = [list(row) for row in certificate]
        if any(x != (i == j) for i, row in enumerate(self.certificate)
               for j, x in enumerate(row)):
            raise InputError(f"not a brick set; hom certificate {self.certificate}")

    def __len__(self):
        return len(self.members)

    def describe(self):
        return {
            "members": [m.describe() for m in self.members],
            "certificate": self.certificate,
        }


def brick_set(objs):
    """Build a BrickSet, raising on anything that is not one."""
    if len(set(o.key() for o in objs)) != len(objs):
        raise InputError("brick set members must be pairwise distinct")
    return BrickSet(objs, hom_matrix(objs, objs))


def compatibility_graph(hom):
    """Adjacency sets read off a square hom matrix: i ~ j iff hom vanishes
    both ways between distinct candidates i and j."""
    n = len(hom)
    return [
        {j for j in range(n) if j != i and hom[i][j] == 0 == hom[j][i]}
        for i in range(n)
    ]


_BRICK_SETS = {}


def maximal_brick_sets(candidates, cap=10 ** 6):
    """All maximal brick sets drawn from the candidate list, as sorted
    index tuples, sorted lexicographically.

    candidates must be pairwise distinct bricks (InputError otherwise).
    The Bron-Kerbosch recursion counts its expansions against cap and
    raises CapExceeded carrying the sets found so far.  Results are
    memoized by the candidates' keys and cap; errors are not."""
    keys = tuple(c.key() for c in candidates)
    got = _BRICK_SETS.get((keys, cap))
    if got is not None:
        return list(got)
    hom = hom_matrix(candidates, candidates)
    for k, row in enumerate(hom):
        if row[k] != 1:
            raise InputError(f"candidate {k} is not a brick (hom certificate fails)")
    seen = set()
    for k, key in enumerate(keys):
        if key in seen:
            raise InputError(f"candidate {k} duplicates an earlier candidate")
        seen.add(key)
    n = len(candidates)
    if n == 0:
        return []
    adj = compatibility_graph(hom)
    out = []
    budget = [cap]

    def expand(r, p, x):
        budget[0] -= 1
        if budget[0] < 0:
            raise CapExceededError(
                f"clique enumeration exceeded {cap} expansions",
                partial=[tuple(sorted(c)) for c in out],
                cap=cap,
            )
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(n)), set())
    _BRICK_SETS[keys, cap] = got = tuple(sorted(out))
    return list(got)


def band_kronecker(quiver, c):
    """The band module with dims (1, 1) on the two-arrow Kronecker quiver:
    the first arrow acts by 1, the second by the scalar c.  Distinct
    scalars give pairwise hom-orthogonal bricks, so {band(c) : c in T}
    is a brick set of any finite size."""
    if quiver.n != 2 or len(quiver.arrows) != 2:
        raise WrongQuiverError("band_kronecker needs 2 vertices and 2 arrows")
    if any((a.source, a.target) != (1, 2) for a in quiver.arrows):
        raise WrongQuiverError("band_kronecker needs both arrows 1 -> 2")
    a1, a2 = quiver.arrows
    return Representation(quiver, [1, 1], {a1.id: [[1]], a2.id: [[c]]})


def _walk_path(quiver, arrow_ids):
    """Check arrow_ids is a nonempty directed path; return its vertices."""
    if not arrow_ids:
        raise BadPathsError("paths must contain at least one arrow")
    try:
        arrows = [quiver.arrows[quiver.arrow_index(aid)] for aid in arrow_ids]
    except KeyError as exc:
        raise BadPathsError(f"unknown arrow id {exc.args[0]!r}") from exc
    verts = [arrows[0].source]
    for a in arrows:
        if a.source != verts[-1]:
            raise BadPathsError(
                f"arrow {a.id} starts at {a.source}, expected {verts[-1]}"
            )
        verts.append(a.target)
    return verts


def band_two_paths(quiver, path1, path2, c):
    """Band module over two directed paths that share exactly their
    endpoints: k at every vertex along either path, each arrow acting by 1
    except the first arrow of path2, which acts by the scalar c."""
    v1 = _walk_path(quiver, path1)
    v2 = _walk_path(quiver, path2)
    if (v1[0], v1[-1]) != (v2[0], v2[-1]):
        raise BadPathsError("paths must share their start and end vertices")
    if v1[0] == v1[-1]:
        raise BadPathsError("paths must join two distinct vertices")
    if set(v1[1:-1]) & set(v2[1:-1]):
        raise BadPathsError("paths must be vertex-disjoint away from endpoints")
    if len(v1) != len(set(v1)) or len(v2) != len(set(v2)):
        raise BadPathsError("each path must visit distinct vertices")
    if set(path1) & set(path2):
        raise BadPathsError("paths must not share arrows")
    support = set(v1) | set(v2)
    dims = [1 if v in support else 0 for v in range(1, quiver.n + 1)]
    maps = {}
    for aid in path1:
        maps[aid] = [[1]]
    for k, aid in enumerate(path2):
        maps[aid] = [[c if k == 0 else 1]]
    return Representation(quiver, dims, maps)


def band_family(quiver, path1=None, path2=None):
    """A generator of arbitrarily large brick-set families of band modules:
    call with no paths on the two-arrow Kronecker quiver, or with two
    endpoint-sharing paths on any quiver.  Returns size -> [DerivedObject]."""
    if path1 is None and path2 is None:
        def gen(count):
            return [
                DerivedObject(band_kronecker(quiver, c), 0, label=f"band({c})")
                for c in range(1, count + 1)
            ]
        return gen
    if path1 is None or path2 is None:
        raise BadPathsError("either give both paths or neither")

    def gen(count):
        return [
            DerivedObject(
                band_two_paths(quiver, path1, path2, c), 0, label=f"band({c})"
            )
            for c in range(1, count + 1)
        ]

    return gen
