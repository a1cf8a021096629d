"""Coproducts on path algebras and the module tensor products they induce.

The path algebra of a finite acyclic quiver has the (finite) set of paths
as a basis, trivial paths e_i included; the product of two paths is their
concatenation when the endpoints match and 0 otherwise (p*q meaning "q then
p", matching left modules).  A CoproductSpec equips the algebra with a
comultiplication and counit given on generators (trivial paths + arrows):
the comultiplication extends multiplicatively to longer paths, while the
counit — which need not be multiplicative when the structure is weak — is
extended by solving the counit law as an exact linear system.

check_axioms verifies, by exhaustive exact evaluation on the path basis:
multiplicativity of the comultiplication (including on pairs whose product
is zero, which is where the quiver relations bite), coassociativity, both
counit laws, the weak-unit comultiplication law

    (D(1) (x) 1)(1 (x) D(1)) = (D (x) id)D(1) = (1 (x) D(1))(D(1) (x) 1),

and the weak-counit product law

    eps(xyz) = sum eps(x y') eps(y'' z) = sum eps(x y'') eps(y' z)

over all basis triples, where D(y) = sum y' (x) y''.  A structure with
D(1) = 1 (x) 1 is flagged as a genuine bialgebra.

A coproduct makes the tensor product M (x) N of two representations, a
module over A (x) A, into a module again: D(1) acts on it as an
idempotent, and its image carries the diagonal action through D.
tensor_wba reads it off one vertex at a time: vertex v is the image of
Q_v = D(e_v)D(1), read off the dimension vectors when Q_v is a sum of
e_x (x) e_y, else off one elimination as a rank factorization.  Each arrow
a: s -> t acts through D(a)Q_s (act is an algebra map, so act(D(a)Q_s) on
the unit columns at Q_s's pivots is act(D(a)) on the vertex basis).  Every
action it builds is one sum of Kronecker blocks c * kron(M_u, N_v) of the
factors' maps, one per term c * u (x) v, added into one flat row-major
buffer: an arrow's map between two vertices read off the dims, or the
whole tensor square elsewhere.  It reads each factor's maps by slot, an
arrow's in place and a trivial path's identity as its dimension, and
keeps a map as summed when the coefficients and maps are ints, else
through exact.frac.  Its checks are identities in A (x) A, proved or
refuted once per CoproductSpec; only a refuted one is checked again on
M (x) N.  Every term list an action reads is fixed per CoproductSpec.
For the canonical grouplike coproduct (every path p gets D(p) = p (x) p,
eps(p) = 1) this reproduces the componentwise tensor product
matrix-for-matrix.

catalog_k2 and catalog_kronecker build the five standard coproduct
patterns on the two-vertex quiver without and with arrows from one table.
It gives each of (a)-(d) as a counit-1 vertex u with the coproducts of e_u
and of the other vertex's e_w; (c)/(d) are (a)/(b) with the vertices
swapped, and every arrow r gets D(r) = e_u (x) r + r (x) e_u.  (e) is the
canonical grouplike structure.  All five are weak bialgebras in the
arrowless case.  With arrows, patterns (b) and (d) fail coassociativity at
every arrow — the failure is forced: the quiver relations and the counit
law pin the arrow coproduct to a form that is not coassociative — and
check_axioms reports the witness.  The catalog transcribes the patterns as
defined; it does not repair them.
"""

import random
import re
from collections import defaultdict
from fractions import Fraction
from itertools import chain, islice

from . import exact
from .errors import (
    DimensionGuardError,
    DuplicateLabelError,
    InputError,
    NotAQuiverActionError,
    StructureMismatchError,
    WrongQuiverError,
)
from .exact import frac
from .quiver import (
    Arrow,
    Quiver,
    Representation,
    identity_rep,
    simple,
    zero_rep,
)

_TRIVIAL_KEY = re.compile(r"^e([0-9]+)$")
# Largest dim M * dim N for tensor_wba: 46 times the tests' largest (108);
# dense two-vertex products took 1.5 s, 150 MB at 4900 and 8 s, 575 MB at 10^4.
MAX_TENSOR_DIM = 5000
# Largest path count of a PathAlgebra: the tests' largest has 21 (A6); a
# chain of 10 vertices with doubled arrows has 2036 and its canonical_wba
# took 0.64 s, growing about 16 times for every two more vertices.
MAX_PATHS = 2048
# Largest path count check_axioms runs on: its counit product law is cubic (0.37 s
# at 57 paths, 3.45 s at 120); tests, catalogs and verify suites check at most 6.
MAX_AXIOM_PATHS = 64


class PathAlgebra:
    """Path basis of the path algebra of an acyclic quiver.

    Paths are stored as (source, target, arrow ids in traversal order);
    the basis is ordered with trivial paths first (by vertex), then by
    length, then lexicographically by the id tuple."""

    def __init__(self, quiver):
        self.quiver = quiver
        found = [(v, v, ()) for v in range(1, quiver.n + 1)]
        layer = [(a.source, a.target, (a.id,)) for a in quiver.arrows]
        while layer:
            found.extend(layer)
            if len(found) > MAX_PATHS:
                raise DimensionGuardError(f"path algebra would have more than"
                                          f" {MAX_PATHS} paths")
            layer = list(islice(((s, a.target, ids + (a.id,)) for (s, t, ids) in layer
                                 for a in quiver.arrows if a.source == t),
                                MAX_PATHS + 1 - len(found)))
        found.sort(key=lambda p: (1, len(p[2]), p[2]) if p[2] else (0, p[0]))
        self.paths = found
        self.index = {p: k for k, p in enumerate(found)}
        self.trivial = {p[0]: k for k, p in enumerate(found) if not p[2]}
        self.arrow_path = {p[2][0]: k for k, p in enumerate(found) if len(p[2]) == 1}
        ending = {v: [] for v in range(1, quiver.n + 1)}
        for j, (_, t, _) in enumerate(found):
            ending[t].append(j)
        # path_i * path_j (j acts first) by index pair, for each pair that composes
        self.products = {(i, j): self.index[(found[j][0], t, found[j][2] + ids)]
                         for i, (s, t, ids) in enumerate(found) for j in ending[s]}

    def __len__(self):
        return len(self.paths)

    def compose(self, i, j):
        """Index of path_i * path_j (j acts first), or None if zero."""
        return self.products.get((i, j))

    def generator_keys(self):
        return [f"e{v}" for v in range(1, self.quiver.n + 1)] + [
            a.id for a in self.quiver.arrows
        ]

    def parse_path_key(self, key):
        """Basis index of a path key: 'e3', an arrow id, or 'a1.a2'
        (dot-joined arrow ids in traversal order)."""
        if not isinstance(key, str):
            raise InputError(f"path key {key!r} is not a string")
        m = _TRIVIAL_KEY.match(key)
        if m and int(m.group(1)) in self.trivial and key not in self.arrow_path:
            return self.trivial[int(m.group(1))]
        ids = tuple(key.split("."))
        if not self.arrow_path.keys() >= set(ids):
            raise InputError(f"unknown path key {key!r}")
        ends = self.paths[self.arrow_path[ids[0]]][0], self.paths[self.arrow_path[ids[-1]]][1]
        k = self.index.get((*ends, ids))  # every composable walk, and only those
        if k is None:
            raise InputError(f"path key {key!r} is not a composable walk")
        return k

    def path_key(self, k):
        s, _, ids = self.paths[k]
        return ".".join(ids) if ids else f"e{s}"


def _add_term(d, key, c):
    """d[key] += c, c and the sum through exact.frac (Fractions can multiply
    or sum to an int; c may be a coefficient as given); 0 deletes."""
    c = frac(c)
    if key in d:
        c = frac(d[key] + c)
    if c:
        d[key] = c
    elif key in d:
        del d[key]


def _pair_index(pairs):
    """{(x, y): i}, i the place of (x, y) in pairs (see _pairs), x-major."""
    return {p: i for i, p in enumerate((x, y) for x, ys in pairs for y in ys)}


def _terms(spec, element, src, tgt):
    """element's terms c * u (x) v (u: x -> x', v: y -> y') as (c, slot of
    u, slot of v, i, j) (see CoproductSpec), i = src((x, y)) and j =
    tgt((x', y')), pair places (see _pair_index), a term dropped on None."""
    out, paths, slot = [], spec.algebra.paths, spec.slot
    for (u, v), c in element.items():
        (x, x2, _), (y, y2, _) = paths[u], paths[v]
        i, j = src((x, y)), tgt((x2, y2))
        if i is not None and j is not None:
            out.append((c, slot[u], slot[v], i, j))
    return out


def _pairs(q, n):
    """The vertex pairs (x, y) of Q_v as ((x, (y, ...)), ...), x and each
    group's y ascending, when each term of q is e_x (x) e_y (e_x being the
    basis path x - 1) with coefficient 1; else None."""
    if any(i >= n or j >= n or c != 1 for (i, j), c in q.items()):
        return None
    return tuple((x + 1, tuple(sorted(j + 1 for i, j in q if i == x)))
                 for x in sorted({i for i, _ in q}))


def _mul(alg, x, y):
    """x * y in a tensor power of the path algebra, elements being dicts
    from key tuples (one path index per leg) to coefficients; a pair of
    terms dies at the first leg whose paths do not compose."""
    out, products = {}, alg.products
    for kx, c1 in x.items():
        for ky, c2 in y.items():
            key = ()
            for i, j in zip(kx, ky):
                k = products.get((i, j))
                if k is None:
                    break
                key += (k,)
            else:
                _add_term(out, key, c1 * c2)
    return out


class CoproductSpec:
    """Comultiplication and counit on a path algebra, given on generators.

    delta maps each generator key ('e1'..'en' and arrow ids) to a list of
    (left path key, right path key, coefficient) triples; counit maps each
    generator key to a scalar, each a value exact.frac reads; anything
    else, and a key that names no generator, is an InputError.  The
    comultiplication is extended to longer paths multiplicatively at
    construction time, and the counit by an exact solve of the counit law
    (free values 0; counit_consistent records whether the law could be
    satisfied at all).  unit optionally names the
    representation expected to be the tensor unit.  For tensor_wba, with
    canonical coefficients: vertex_units, Q_v = D(e_v)D(1) per vertex, with
    vertex_pairs (see _pairs); arrow_units, D(a)Q_s per arrow a: s -> t;
    read_paths, the paths of length two or more in the units and in the
    checks that fail as identities in A (x) A; slot, each read path's place
    in a factor's maps by slot (see _slot_maps): an arrow at its place in
    the quiver's arrows, e_v at len(arrows) + v - 1, the read_paths after
    them; as _terms lists them on the whole tensor square, pairs x-major,
    module_checks, the failed checks as (error class, message, lhs, rhs),
    unit_terms, the Q_v, and arrow_terms, the D(a)Q_s; arrow_blocks, the
    D(a)Q_s from pair i of Q_s's vertex_pairs to pair j of Q_t's, None if
    an end has no pairs; eliminated, the vertices without pairs and the
    ends of arrows without blocks; integral_blocks, whether every block
    coefficient is an int."""

    def __init__(self, quiver, delta, counit, name="custom", unit=None):
        self.quiver = quiver
        self.name = name
        self.unit = unit
        self.algebra = PathAlgebra(quiver)
        alg = self.algebra
        for a in quiver.arrows:
            m = _TRIVIAL_KEY.match(a.id)
            if m and int(m.group(1)) <= quiver.n:
                raise DuplicateLabelError(
                    f"arrow id {a.id!r} collides with a trivial-path key"
                )
        keys = alg.generator_keys()
        for key in keys:
            if key not in delta:
                raise InputError(f"coproduct not given on generator {key!r}")
            if key not in counit:
                raise InputError(f"counit not given on generator {key!r}")
        unknown = sorted((delta.keys() | counit.keys()) - set(keys), key=str)
        if unknown:
            raise InputError(f"coproduct or counit given on {unknown}, which are"
                             f" not generators of the quiver")
        self.delta_gen = {}
        try:
            for key in keys:
                given = delta[key]
                if not exact.nested(given) or not set(map(len, given)) <= {3}:
                    raise InputError("malformed coproduct spec: each coproduct must be"
                                     " an array of [left, right, coefficient] arrays")
                terms = self.delta_gen[key] = {}
                for left, right, c in given:
                    pair = (alg.parse_path_key(left), alg.parse_path_key(right))
                    _add_term(terms, pair, c)
            self.eps_gen = {key: frac(counit[key]) for key in keys}
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed coproduct spec: {exc}") from exc
        self._delta = self._extend_delta()
        unit = self.delta_unit = {}
        for v in range(1, quiver.n + 1):
            for pair, c in self.delta_gen[f"e{v}"].items():
                _add_term(unit, pair, c)
        self._eps, self.counit_consistent = self._extend_counit()
        units = self.vertex_units = [_mul(alg, self.delta_gen[f"e{v}"], unit)
                                     for v in range(1, quiver.n + 1)]
        self.vertex_pairs = [_pairs(q, quiver.n) for q in units]
        self.arrow_units = [_mul(alg, self.delta_gen[a.id], units[a.source - 1])
                            for a in quiver.arrows]
        failed = self._failed_identities()
        read = [x for check in failed for x in check[2:]] + self.arrow_units + units
        self.read_paths = sorted({k for x in read for pair in x for k in pair
                                  if len(alg.paths[k][2]) > 1})
        slots = [alg.arrow_path[a.id] for a in quiver.arrows] + [
            alg.trivial[v] for v in range(1, quiver.n + 1)] + self.read_paths
        self.slot = {k: i for i, k in enumerate(slots)}
        square = (lambda p: (p[0] - 1) * quiver.n + p[1] - 1,) * 2  # every (x, y), x-major
        self.module_checks = [(error, message, _terms(self, lhs, *square),
                               _terms(self, rhs, *square)) for error, message, lhs, rhs in failed]
        self.unit_terms = [_terms(self, q, *square) for q in units]
        self.arrow_terms = [_terms(self, x, *square) for x in self.arrow_units]
        self.arrow_blocks = []
        for a, inside in zip(quiver.arrows, self.arrow_units):
            ends = [self.vertex_pairs[v - 1] for v in (a.source, a.target)]
            self.arrow_blocks.append(None if None in ends else _terms(
                self, inside, *(_pair_index(pairs).get for pairs in ends)))
        self.eliminated = sorted({v for a, b in zip(quiver.arrows, self.arrow_blocks) if b is None
                                  for v in (a.source, a.target)} | {
            v for v, pairs in enumerate(self.vertex_pairs, 1) if pairs is None})
        self.integral_blocks = all(type(t[0]) is int for b in self.arrow_blocks if b for t in b)

    def _failed_identities(self):
        """tensor_wba's checks, in its order, as (error class, message, lhs,
        rhs), kept where lhs != rhs in A (x) A: D(1)^2 = D(1), D(1)D(g)D(1) =
        D(g)D(1) per generator, Q_v^2 = Q_v per vertex and Q_t D(a) Q_s =
        D(1)D(a)D(1) per arrow a: s -> t.  One that holds in A (x) A holds
        on every module M (x) N."""
        alg, unit, units = self.algebra, self.delta_unit, self.vertex_units
        checks = [(StructureMismatchError, "the coproduct of 1 does not act"
                   " idempotently on the tensor square", _mul(alg, unit, unit), unit)]
        sandwiched = {}  # D(1)D(g)D(1)
        for key in alg.generator_keys():
            right = _mul(alg, self.delta_gen[key], unit)
            sandwiched[key] = _mul(alg, unit, right)
            checks.append((NotAQuiverActionError, f"D({key}) does not preserve the"
                           " image of the D(1) action", sandwiched[key], right))
        for v, q in enumerate(units, 1):
            checks.append((NotAQuiverActionError, f"action of e{v} is not idempotent",
                           _mul(alg, q, q), q))
        for a, inside in zip(self.quiver.arrows, self.arrow_units):
            checks.append((NotAQuiverActionError, f"action of arrow {a.id} is not"
                           f" supported on the ({a.target}, {a.source}) block",
                           _mul(alg, units[a.target - 1], inside), sandwiched[a.id]))
        return [check for check in checks if check[2] != check[3]]

    def _extend_delta(self):
        """D on every path: a generator's table, else D(last arrow) times
        D(prefix), the prefix's coproduct built earlier in alg.paths."""
        alg = self.algebra
        full = []
        for s, t, ids in alg.paths:
            if len(ids) < 2:
                full.append(dict(self.delta_gen[ids[0] if ids else f"e{s}"]))
            else:
                mid = alg.paths[alg.arrow_path[ids[-1]]][0]
                prefix = full[alg.index[(s, mid, ids[:-1])]]
                full.append(_mul(alg, self.delta_gen[ids[-1]], prefix))
        return full

    def delta(self, k):
        return self._delta[k]

    def eps(self, k):
        return self._eps[k]

    def _extend_counit(self):
        """(eps, whether both counit laws hold): generator values, then
        long-path values solving the counit laws, one sparse row per path,
        side and kept path, its right-hand side in column len(long).  The
        laws hold exactly when this system is consistent.  Free values are
        0; an inconsistent law leaves every long path at 0."""
        alg = self.algebra
        long = [k for k, p in enumerate(alg.paths) if len(p[2]) >= 2]
        col = {k: c for c, k in enumerate(long)}
        eps = [0 if len(ids) >= 2 else self.eps_gen[ids[0] if ids else f"e{s}"]
               for s, _, ids in alg.paths]
        rhs = len(long)
        rows = []
        for p in range(len(alg)):
            for side in (0, 1):
                law = {p: {rhs: 1}}  # kept path -> its row
                for (u, v), c in self._delta[p].items():
                    kept, evaluated = (u, v) if side == 0 else (v, u)
                    row = law.setdefault(kept, {})
                    j, x = ((col[evaluated], c) if evaluated in col
                            else (rhs, -c * eps[evaluated]))
                    row[j] = row.get(j, 0) + x
                rows += ({j: x for j, x in row.items() if x} for row in law.values())
        pivots, reduced, rest = exact.eliminate(rows, rhs)
        if not rest:  # else some row reads 0 = nonzero
            for c, row in zip(pivots, reduced):
                eps[long[c]] = row.get(rhs, 0)
        return eps, not rest

    def _counit_witness(self, side):
        """Where (eps (x) id)D (side 0) or (id (x) eps)D (side 1) first
        fails to be the identity, as a message, or None."""
        for p in range(len(self.algebra)):
            out = {}
            for (u, v), c in self._delta[p].items():
                kept, evaluated = (v, u) if side == 0 else (u, v)
                _add_term(out, kept, c * self._eps[evaluated])
            if out != {p: 1}:
                law = "(eps(x)id)D" if side == 0 else "(id(x)eps)D"
                return f"{law} != id at {self.algebra.path_key(p)}"
        return None

    def is_bialgebra(self):
        trivial = self.algebra.trivial.values()
        return self.delta_unit == {(i, j): 1 for i in trivial for j in trivial}

    def to_dict(self):
        alg = self.algebra
        delta = {key: sorted([alg.path_key(u), alg.path_key(v), str(c)]
                             for (u, v), c in self.delta_gen[key].items())
                 for key in alg.generator_keys()}
        out = {
            "name": self.name,
            "quiver": self.quiver.to_dict(),
            "delta": delta,
            "counit": {k: str(c) for k, c in self.eps_gen.items()},
        }
        if self.unit is not None:
            out["unit"] = self.unit.to_dict()
        return out

    @classmethod
    def from_dict(cls, data):
        """The structure a JSON object holds, over its embedded quiver; the
        constructor checks delta's and counit's entries."""
        if not isinstance(data, dict):
            raise InputError("a coproduct spec must be a JSON object")
        if "quiver" not in data:
            raise InputError("coproduct spec needs an embedded quiver")
        quiver = Quiver.from_dict(data["quiver"])
        delta, counit = data.get("delta"), data.get("counit")
        if not isinstance(delta, dict) or not isinstance(counit, dict):
            raise InputError("coproduct spec needs 'delta' and 'counit' objects")
        name = data.get("name", "custom")
        if not isinstance(name, str):
            raise InputError("malformed coproduct spec: 'name' must be a string")
        unit = data.get("unit")
        if unit is not None:
            unit = Representation.from_dict(unit, quiver=quiver)
        return cls(quiver, delta, counit, name=name, unit=unit)


class AxiomReport:
    """Outcome of check_axioms: per-axiom first witnesses, in check order."""

    def __init__(self, structure, failures, bialgebra, counit_consistent):
        self.structure = structure
        self.failures = failures
        self.ok = not failures
        self.bialgebra = bialgebra
        self.counit_consistent = counit_consistent

    def describe(self):
        return {
            "structure": self.structure,
            "ok": self.ok,
            "bialgebra": self.bialgebra,
            "counit_extension_consistent": self.counit_consistent,
            "failures": self.failures,
        }


def _multiplicativity_witness(spec):
    alg = spec.algebra
    for i in range(len(alg)):
        for j in range(len(alg)):
            k = alg.compose(i, j)
            target = spec.delta(k) if k is not None else {}
            if _mul(alg, spec.delta(i), spec.delta(j)) != target:
                return f"D(p*q) != D(p)D(q) at p={alg.path_key(i)}, q={alg.path_key(j)}"
    return None


def _coproduct_on_leg(spec, x, leg):
    """(D (x) id)x for leg 0, (id (x) D)x for leg 1, x a dict on pairs."""
    out = {}
    for (u, v), c in x.items():
        for (a, b), d in spec.delta(v if leg else u).items():
            _add_term(out, (u, a, b) if leg else (a, b, v), c * d)
    return out


def _coassociativity_witness(spec):
    for p in range(len(spec.algebra)):
        d = spec.delta(p)
        if _coproduct_on_leg(spec, d, 0) != _coproduct_on_leg(spec, d, 1):
            return f"(D(x)id)D != (id(x)D)D at {spec.algebra.path_key(p)}"
    return None


def _unit_comultiplication_witness(spec):
    """(D(1)(x)1)(1(x)D(1)) is the sum of c c' (u, v u', v') over pairs of
    terms c u(x)v, c' u'(x)v' of D(1), since u e_s = u exactly when u
    starts at s and e_t v' = v' exactly when v' ends at t; in the other
    order the middle leg is u' v."""
    alg, du = spec.algebra, spec.delta_unit
    middle = _coproduct_on_leg(spec, du, 0)
    for swapped, law in ((False, "(D(1)(x)1)(1(x)D(1))"), (True, "(1(x)D(1))(D(1)(x)1)")):
        out = {}
        for (u, v), c in du.items():
            for (u2, v2), c2 in du.items():
                k = alg.compose(u2, v) if swapped else alg.compose(v, u2)
                if k is not None:
                    _add_term(out, (u, k, v2), c * c2)
        if out != middle:
            return f"{law} != (D(x)id)D(1)"
    return None


def _counit_product_witness(spec):
    alg = spec.algebra
    n = len(alg)
    # e[i][j] = eps(path_i * path_j), 0 when the two paths do not compose
    e = [[0 if k is None else spec.eps(k)
          for k in (alg.compose(i, j) for j in range(n))] for i in range(n)]
    for x in range(n):
        ex = e[x]
        for y in range(n):
            dy = spec.delta(y).items()
            for z in range(n):
                yz = alg.compose(y, z)
                lhs = 0 if yz is None else ex[yz]
                if (sum((c * ex[u] * e[v][z] for (u, v), c in dy), 0) != lhs
                        or sum((c * ex[v] * e[u][z] for (u, v), c in dy), 0) != lhs):
                    return (f"eps(xyz) law fails at x={alg.path_key(x)},"
                            f" y={alg.path_key(y)}, z={alg.path_key(z)}")
    return None


# Each axiom with its witness: a message naming the first failure, or None.
_AXIOMS = (
    ("multiplicativity", _multiplicativity_witness),
    ("coassociativity", _coassociativity_witness),
    ("counit_left", lambda spec: spec._counit_witness(0)),
    ("counit_right", lambda spec: spec._counit_witness(1)),
    ("unit_comultiplication", _unit_comultiplication_witness),
    ("counit_product_law", _counit_product_witness),
)


def check_axioms(spec):
    """Exhaustively verify the weak bialgebra axioms on the path basis;
    DimensionGuardError, before any of them, above MAX_AXIOM_PATHS paths."""
    if len(spec.algebra) > MAX_AXIOM_PATHS:
        raise DimensionGuardError(f"axiom check of {len(spec.algebra)} paths is above"
                                  f" the limit of {MAX_AXIOM_PATHS}")
    failures = []
    for axiom, witness in _AXIOMS:
        w = witness(spec)
        if w is not None:
            failures.append({"axiom": axiom, "witness": w})
    return AxiomReport(spec.name, failures, spec.is_bialgebra(), spec.counit_consistent)


def canonical_wba(quiver):
    """The grouplike coproduct: D(p) = p (x) p and eps(p) = 1 on every path.
    Its module tensor product is the componentwise one; the unit is the
    all-k representation with identity arrow maps."""
    delta, counit = _grouplike_table(quiver)
    return CoproductSpec(
        quiver, delta, counit, name="canonical", unit=identity_rep(quiver)
    )


# Patterns (a)-(d) on two vertices as (counit-1 vertex u, D(e_u), D(e_w)),
# w the other vertex (counit 0), each term a (left, right) pair of letters
# standing for e_u and e_w, with coefficient 1.
_PATTERNS = {
    "a": (1, ["uu"], ["ww", "uw", "wu"]),
    "b": (1, ["uu", "ww"], ["wu", "uw"]),
    "c": (2, ["uu"], ["ww", "uw", "wu"]),
    "d": (2, ["uu", "ww"], ["wu", "uw"]),
}


def _two_vertex_catalog(quiver, prefix):
    """Patterns (a)-(d) of _PATTERNS, each with unit S(u), every arrow
    r getting D(r) = e_u (x) r + r (x) e_u and eps(r) = 0, then (e), the
    grouplike structure with the all-k unit; named prefix-a .. prefix-e."""
    out = []
    for variant, (u, d_u, d_w) in _PATTERNS.items():
        e = {"u": f"e{u}", "w": f"e{3 - u}"}
        delta = {e["u"]: [(e[x], e[y], 1) for x, y in d_u],
                 e["w"]: [(e[x], e[y], 1) for x, y in d_w]}
        counit = {e["u"]: 1, e["w"]: 0}
        for a in quiver.arrows:
            delta[a.id] = [(e["u"], a.id, 1), (a.id, e["u"], 1)]
            counit[a.id] = 0
        out.append(CoproductSpec(quiver, delta, counit, name=f"{prefix}-{variant}",
                                 unit=simple(quiver, u)))
    delta, counit = _grouplike_table(quiver)
    out.append(CoproductSpec(quiver, delta, counit, name=f"{prefix}-e",
                             unit=identity_rep(quiver)))
    return out


def catalog_k2():
    """The five coproduct structures on two isolated vertices (all pass
    check_axioms; (e) is weak but not a bialgebra)."""
    return _two_vertex_catalog(Quiver(2, []), "k2")


def kronecker_quiver(w):
    """Two vertices, w parallel arrows 1 -> 2 (ids r1..rw); its w + 2 paths
    are held to MAX_PATHS before any arrow is built."""
    if w < 1:
        raise InputError("the arrow count w must be at least 1")
    if w + 2 > MAX_PATHS:
        raise DimensionGuardError(f"path algebra would have more than {MAX_PATHS} paths")
    return Quiver(2, [Arrow(f"r{k}", 1, 2) for k in range(1, w + 1)])


def catalog_kronecker(w):
    """The five coproduct patterns on the w-arrow two-vertex quiver.

    (a)/(c): arrows primitive over the counit-1 vertex — weak bialgebras
    (in fact bialgebras).  (b)/(d): the same arrow formula, forced by the
    counit law, which fails coassociativity at every arrow; included
    as defined, as known-bad entries check_axioms must flag.  (e): the
    canonical grouplike structure (a weak bialgebra that is not a
    bialgebra)."""
    return _two_vertex_catalog(kronecker_quiver(w), f"kronecker{w}")


def _grouplike_table(quiver):
    keys = [f"e{v}" for v in range(1, quiver.n + 1)] + [a.id for a in quiver.arrows]
    return {key: [(key, key, 1)] for key in keys}, dict.fromkeys(keys, 1)


def _layout(vertex_pairs, dm, dn):
    """Per vertex, in one pass: None without pairs, else (start, step) per
    pair, entry (k, l) of M_x (x) N_y at start + k*step + l, the k*dim N + l
    sorted (step: dim N summed over x's group); and the list of the
    vertices' dimensions, 0 where a vertex has no pairs."""
    places, dims = [], []
    for pairs in vertex_pairs:
        laid, start = [], 0
        for x, ys in pairs or ():
            step = 0
            for y in ys:
                step += dn[y - 1]
            for y in ys:
                laid.append((start, step))
                start += dn[y - 1]
            start += (dm[x - 1] - 1) * step  # the group's dm[x] rows of step entries
        places.append(None if pairs is None else laid)
        dims.append(start)
    return places, dims


def _add_blocks(out, width, terms, pm, pn, src, tgt):
    """Add c * kron(M_u, N_v) for each term (c, u, v, i, j) (see _terms) to
    the flat row-major buffer out, entry (row, col) at row * width + col,
    at pair j's rows of tgt and pair i's columns of src (see _layout), from
    the maps by slot pm, pn (see CoproductSpec), an int d standing for I_d;
    out is a list or a defaultdict."""
    for c, u, v, i, j in terms:
        (col0, step), (row0, step_t), a, b = src[i], tgt[j], pm[u], pn[v]
        ident = type(a) is int  # M's identity: row r is 1 at column r
        for r in range(a if ident else len(a)):
            for k, x in ((r, 1),) if ident else enumerate(a[r]):
                if x:
                    cx, base = c * x, (row0 + r * step_t) * width + col0 + k * step
                    if type(b) is int:  # N's identity: row l is cx at column l
                        for p in range(base, base + b * (width + 1), width + 1):
                            out[p] += cx
                        continue
                    for row_n in b:
                        for p, y in enumerate(row_n, base):
                            if y:
                                out[p] += cx * y
                        base += width


def _act(pm, pn, square, terms):
    """act of an element on M (x) N: the blocks (see _add_blocks) of its
    terms on the whole tensor square (see CoproductSpec), square the layout
    and dimension of every pair (x, y), x-major (entry (k, l) of M_x (x) N_y
    at k*dim N + l), summed in one buffer and returned as {row: sparse row}
    (see exact.eliminate), with no cancelled entry or empty row stored."""
    (layout, size), out, rows = square, defaultdict(int), defaultdict(dict)
    _add_blocks(out, size, terms, pm, pn, layout, layout)
    for p, z in out.items():
        if z:
            r, col = divmod(p, size)
            rows[r][col] = z
    return rows


def _path_map(alg, rep, k):
    """Path k's map on rep, from its source's space to its target's: its
    dimension for a trivial path (see _add_blocks), its arrow's map, or its
    arrows' maps multiplied through frac."""
    s, _, ids = alg.paths[k]
    d = rep.dims[s - 1]
    mat = rep.map_for(ids[0]) if ids else d
    for aid in ids[1:]:
        mat = [[frac(sum(x * mat[j][c] for j, x in enumerate(row))) for c in range(d)]
               for row in rep.map_for(aid)]
    return mat


def _slot_maps(spec, rep):
    """rep's maps by slot (see CoproductSpec): its arrow maps, its dims
    (see _add_blocks), then _path_map's of spec.read_paths."""
    out = rep.maps + rep.dims
    for k in spec.read_paths:
        out += (_path_map(spec.algebra, rep, k),)
    return out


def tensor_wba(spec, m, n):
    """Tensor product of representations twisted through the coproduct.

    Vertex v is the image of Q_v = D(e_v)D(1) acting on M (x) N; a rank
    factorization Q_v = W_v R_v gives its basis W_v, with R_v W_v = I once
    Q_v is idempotent, and arrow a: s -> t acts by R_t act(D(a)) W_s, which
    is R_t act(D(a)Q_s) E_s (spec.arrow_units), E_s the unit columns at
    Q_s's pivots, as act is an algebra map and W_s = act(Q_s) E_s.  Where
    Q_v has pairs (x, y) (spec.vertex_pairs), act(Q_v) projects onto the
    coordinates of the M_x (x) N_y, read off the dims (see _layout), and an
    arrow between two such vertices sums c * kron(M_u, N_v) over the terms
    c * u (x) v of D(a)Q_s (spec.arrow_blocks) at pair (x', y')'s rows and
    pair (x, y)'s columns.  The vertices in spec.eliminated are eliminated
    off act(Q_v)'s nonzero rows instead, and an arrow with an end without
    pairs reads its map off act(D(a)Q_s); act (see _act) adds the same
    blocks by the same kernel (see _add_blocks) on the whole tensor
    square, laid out at most once, from spec.unit_terms and
    spec.arrow_terms.  Factor maps are read by slot (see
    _slot_maps).  Each arrow's map is summed in one flat row-major buffer,
    kept as summed, canonical already, when spec.integral_blocks holds and
    M's and N's maps hold no Fraction, else passed through exact.frac,
    then cut into rows; the result is passed on without re-validation.
    Checks, in order, the spec's module_checks on M (x) N: StructureMismatch
    if D(1) does not act idempotently, NotAQuiverAction if a D(generator)
    leaves its image, an e_v is not idempotent there, or an arrow acts
    outside its (target, source) block (structures that are not weak
    bialgebras).  Raises DimensionGuardError, before allocating, when
    dim M * dim N exceeds MAX_TENSOR_DIM."""
    if not spec.quiver == m.quiver == n.quiver:
        raise WrongQuiverError("representations are not over the coproduct's quiver")
    dm, dn = m.dims, n.dims
    size = sum(dm) * sum(dn)
    if size == 0:
        return zero_rep(spec.quiver)
    if size > MAX_TENSOR_DIM:
        raise DimensionGuardError(f"tensor square would have dimension above"
                                  f" {MAX_TENSOR_DIM}")
    pm, pn = _slot_maps(spec, m), _slot_maps(spec, n)
    if spec.module_checks or spec.eliminated:  # _act's whole-square layout, built once
        whole = [(x, range(1, len(dn) + 1)) for x in range(1, len(dm) + 1)]
        square = _layout([whole], dm, dn)[0][0], size
    for error, message, lhs, rhs in spec.module_checks:
        if _act(pm, pn, square, lhs) != _act(pm, pn, square, rhs):
            raise error(message)
    places, dims = _layout(spec.vertex_pairs, dm, dn)
    bases = {}  # vertex -> (pivots, reduced rows) of act(Q_v)
    for v in spec.eliminated:
        pivots, reduced, _ = exact.eliminate(
            _act(pm, pn, square, spec.unit_terms[v - 1]).values(), size)
        bases[v] = pivots, reduced
        dims[v - 1] = len(pivots)
    entries = chain.from_iterable(chain.from_iterable(m.maps + n.maps))
    integral = spec.integral_blocks and Fraction not in map(type, entries)  # all ints
    maps = []
    for a, unit, blocks in zip(spec.quiver.arrows, spec.arrow_terms, spec.arrow_blocks):
        height, width = dims[a.target - 1], dims[a.source - 1]
        out = [0] * (height * width)
        if blocks is None:  # R_t act(D(a)Q_s) at the pivot columns of Q_s
            action = _act(pm, pn, square, unit)
            colof = {p: c for c, p in enumerate(bases[a.source][0])}
            for r, row in enumerate(bases[a.target][1]):
                for p, w in row.items():  # w times row p of act(D(a)Q_s)
                    for col, z in action.get(p, {}).items():
                        if col in colof:
                            out[r * width + colof[col]] += w * z
        else:  # c * kron(M_u, N_v) from pair i of Q_s to pair j of Q_t
            _add_blocks(out, width, blocks, pm, pn, places[a.source - 1], places[a.target - 1])
        if blocks is None or not integral:
            out = [frac(z) if z else 0 for z in out]
        maps.append(tuple(zip(*[iter(out)] * width)) if width else ((),) * height)  # row tuples
    return Representation._trusted(spec.quiver, tuple(dims), tuple(maps))


def is_discrete(spec):
    """Whether S(i) (x) S(j) is S(i) for i = j and 0 otherwise, evaluated
    through tensor_wba on every pair of vertex simples."""
    q = spec.quiver
    for i in range(1, q.n + 1):
        for j in range(1, q.n + 1):
            t = tensor_wba(spec, simple(q, i), simple(q, j))
            if list(t.dims) != [int(v == i == j) for v in range(1, q.n + 1)]:
                return {
                    "discrete": False,
                    "structure": spec.name,
                    "witness": {"i": i, "j": j, "dims": list(t.dims)},
                }
    return {"discrete": True, "structure": spec.name, "witness": None}


def perturb_spec(spec, seed):
    """A copy of the structure with exactly one coefficient changed
    (comultiplication term or counit value on a generator), used to
    exercise the axiom checker."""
    rng = random.Random(seed)
    alg = spec.algebra
    data = spec.to_dict()
    shift = rng.choice([1, -1, 2, Fraction(1, 2)])
    kind = "delta" if rng.random() < 0.75 else "counit"
    key = rng.choice(alg.generator_keys())
    if kind == "delta":
        pair = (alg.path_key(rng.randrange(len(alg))),
                alg.path_key(rng.randrange(len(alg))))
        data["delta"][key].append([*pair, str(shift)])  # summed on construction
        term = f" * {pair[0]}(x){pair[1]}"
    else:
        pair, term = None, ""
        data["counit"][key] = str(frac(data["counit"][key]) + shift)
    out = CoproductSpec(spec.quiver, data["delta"], data["counit"],
                        name=f"{spec.name}+corrupt", unit=spec.unit)
    out.perturbation_info = {"kind": kind, "generator": key, "pair": pair,
                             "shift": str(shift)}
    out.perturbation = f"{kind}[{key}] += {shift}{term}"
    return out


def deformation_preserves_axioms(spec, info):
    """Whether the one-coefficient change described by ``info`` (the
    ``perturbation_info`` of :func:`perturb_spec` applied to ``spec``)
    provably leaves every axiom intact.

    Single-coefficient changes almost always break an axiom, but not
    quite always.  Suppose every arrow coproduct of ``spec`` reads
    D(r) = e(x)r + r(x)e for one shared vertex idempotent e with
    D(e) = e(x)e, and the counit kills every arrow.  Adding c * rj(x)rk
    to D(ri) then changes the coassociativity defect by cubic terms
    only: c^2 * ri(x)rk(x)rk on one side (present only when j = i) and
    c^2 * rj(x)rj(x)ri on the other (present only when k = i).  These
    cancel exactly when j = k = i or when neither j nor k equals i, and
    no other axiom sees the new term (both legs die under the counit and
    annihilate every product that must vanish).  The deformed structure
    is then a genuine weak bialgebra, so a checker that accepted it
    would be right to.  Returns True exactly for that family."""
    if info["kind"] != "delta":
        return False
    arrow_ids = [a.id for a in spec.quiver.arrows]
    g = info["generator"]
    if g not in arrow_ids:
        return False
    u, v = info["pair"]
    if u not in arrow_ids or v not in arrow_ids:
        return False
    alg = spec.algebra
    base = None
    for aid in arrow_ids:
        k = alg.arrow_path[aid]
        expected = next((idx for idx in alg.trivial.values()
                         if spec.delta_gen[aid] == {(idx, k): 1, (k, idx): 1}), None)
        if expected is None or base not in (None, expected) or spec.eps_gen[aid] != 0:
            return False
        base = expected
    e_key = alg.path_key(base)
    if spec.delta_gen[e_key] != {(base, base): 1}:
        return False
    return (u == g and v == g) or (u != g and v != g)
