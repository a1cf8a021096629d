"""Bricks, brick sets, and their enumeration.

Objects live in the bounded derived category of a hereditary path algebra,
so every object is a shifted representation; a DerivedObject is a pair
(representation, integer shift).  Between shifted representations

    Hom(M[a], N[b]) = Hom(M, N)   if b = a,
                      Ext^1(M, N) if b = a + 1,
                      0            otherwise,

which is what quiver.hom_row computes; hom_matrix(xs, ys) is the one place
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
(carrying the partial result) instead of truncating.  A CandidateIndex,
memoized per candidate list, holds what every computation over the list
reads, so each list is checked and enumerated once.
"""

from .errors import BadPathsError, CapExceededError, InputError, WrongQuiverError
from .quiver import Representation, hom_row, remember


class DerivedObject:
    """A representation placed at an integer shift, optionally labeled."""

    def __init__(self, rep, shift=0, label=None):
        self.rep = rep
        self.shift = int(shift)
        self.label = label

    def key(self):
        return (self.rep.key(), self.shift)

    def describe(self):
        out = {"dims": list(self.rep.dims), "shift": self.shift}
        if self.label:
            out["label"] = self.label
        return out


def hom_matrix(xs, ys):
    """[i][j] = derived hom dimension from xs[i] to ys[j] (see module
    docstring), one quiver.hom_row per row over ys's ids, taken once.  With
    ys = xs it is the identity exactly for a brick set; with ys the images
    of xs under a functor it is that functor's adjacency matrix on xs."""
    cols = [(y.rep.key(), y.shift, y.rep) for y in ys]
    return [hom_row(x.rep, cols, x.shift) for x in xs]


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


# Caps (see quiver.remember) on the index memo and each index's tensored lists.
MAX_INDEXES = 64
MAX_TENSORED = 32
_INDEXES = {}


class CandidateIndex:
    """A checked candidate list (pairwise distinct bricks, InputError
    otherwise) with its ids, hom matrix, maximal sets and, per object and
    tensor, the tensored list.  The compatibility graph is read off the hom
    matrix when the sets are searched, which is once for any cap that
    suffices, and is not kept."""

    def __init__(self, candidates):
        self.objs = tuple(candidates)
        self.ids = tuple(c.key() for c in self.objs)
        self.hom = hom_matrix(self.objs, self.objs)
        for k, row in enumerate(self.hom):
            if row[k] != 1:
                raise InputError(f"candidate {k} is not a brick (hom certificate fails)")
        for k, key in enumerate(self.ids):
            if key in self.ids[:k]:
                raise InputError(f"candidate {k} duplicates an earlier candidate")
        self._found = None  # (maximal sets, expansions taken)
        self._tensored = {}

    def maximal_sets(self, cap):
        """maximal_brick_sets as a tuple, enumerated once: only a cap below
        the expansions that took searches again (and raises)."""
        found = self._found
        if found is not None and cap >= found[1]:
            return found[0]
        adj, out, budget = compatibility_graph(self.hom), [], [cap]

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

        if adj:
            expand(set(), set(range(len(adj))), set())
        self._found = found = tuple(sorted(out)), cap - budget[0]
        return found[0]

    def tensored(self, m, tensor, shift):
        """[DerivedObject(tensor(m, X), shift of X + shift) for X in the
        candidates], the products built once per m and tensor.  A product
        equal to a candidate or an earlier product is kept as that object."""
        key = (m.key(), tensor)
        reps = self._tensored.get(key)
        if reps is None:
            seen = {x.rep.key(): x.rep for x in self.objs}
            reps = [tensor(m, x.rep) for x in self.objs]
            reps = remember(self._tensored, key, [seen.setdefault(t.key(), t) for t in reps],
                            MAX_TENSORED)
        return [DerivedObject(t, x.shift + shift) for t, x in zip(reps, self.objs)]


def candidate_index(key, build):
    """The CandidateIndex memoized under key, made from the list build()
    returns on a miss; key determines that list: the candidates' ids
    (index_of) or what a generated list is generated from."""
    index = _INDEXES.get(key)
    if index is None:
        index = remember(_INDEXES, key, CandidateIndex(build()), MAX_INDEXES)
    return index


def index_of(candidates):
    """The memoized CandidateIndex of a list of DerivedObjects."""
    return candidate_index(tuple([c.key() for c in candidates]), lambda: candidates)


def maximal_brick_sets(candidates, cap=10 ** 6):
    """All maximal brick sets drawn from the candidate list, as sorted
    index tuples, sorted lexicographically; a new list on every call.

    candidates must be pairwise distinct bricks (InputError otherwise).
    The Bron-Kerbosch recursion counts its expansions against cap and
    raises CapExceeded carrying the sets found so far.  Errors are not
    remembered."""
    return list(index_of(candidates).maximal_sets(cap))


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
    if set(v1[1:-1]) & set(v2[1:-1]):
        raise BadPathsError("paths must be vertex-disjoint away from endpoints")
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
    if (path1 is None) != (path2 is None):
        raise BadPathsError("either give both paths or neither")

    def gen(count):
        return [
            DerivedObject(
                band_kronecker(quiver, c) if path1 is None
                else band_two_paths(quiver, path1, path2, c),
                0, label=f"band({c})",
            )
            for c in range(1, count + 1)
        ]

    return gen
