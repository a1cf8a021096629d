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

A coproduct makes the tensor product M (x) N of two representations into a
module again: the unit's coproduct acts on the componentwise tensor product
as an idempotent, its image carries the diagonal action through D, and
tensor_wba converts that module back into a representation (vertex spaces
are the images of the idempotent actions e_i, each change of basis read
off one elimination as a rank factorization, each coproduct applied
straight to that image's basis, each path action built once from its
prefix's, and the result trusted, not re-validated).  For the canonical
grouplike coproduct (every path p gets D(p) = p (x) p, eps(p) = 1) this
reproduces the componentwise tensor product matrix-for-matrix.

catalog_k2 and catalog_kronecker return the five standard coproduct
patterns on the two-vertex quiver without and with arrows.  All five are
weak bialgebras in the arrowless case.  With arrows, patterns (b) and (d)
fail coassociativity at every arrow — the failure is forced: the quiver
relations and the counit law pin the arrow coproduct to a form that is not
coassociative — and check_axioms reports the witness.  The catalog
transcribes the patterns as defined; it does not repair them.
"""

import random
import re
from fractions import Fraction

from . import exact
from .errors import (
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

ONE = Fraction(1)


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
            layer = [
                (s, a.target, ids + (a.id,))
                for (s, t, ids) in layer
                for a in quiver.arrows
                if a.source == t
            ]
        found.sort(key=lambda p: (1, len(p[2]), p[2]) if p[2] else (0, p[0]))
        self.paths = found
        self.index = {p: k for k, p in enumerate(found)}
        self.trivial = {p[0]: k for k, p in enumerate(found) if not p[2]}
        self.arrow_path = {p[2][0]: k for k, p in enumerate(found) if len(p[2]) == 1}

    def __len__(self):
        return len(self.paths)

    def compose(self, i, j):
        """Index of path_i * path_j (j acts first), or None if zero."""
        si, ti, ai = self.paths[i]
        sj, tj, aj = self.paths[j]
        if si != tj:
            return None
        return self.index[(sj, ti, aj + ai)]

    def generator_keys(self):
        return [f"e{v}" for v in range(1, self.quiver.n + 1)] + [
            a.id for a in self.quiver.arrows
        ]

    def parse_path_key(self, key):
        """Basis index of a path key: 'e3', an arrow id, or 'a1.a2'
        (dot-joined arrow ids in traversal order)."""
        m = _TRIVIAL_KEY.match(key)
        if m and int(m.group(1)) in self.trivial and key not in self.arrow_path:
            return self.trivial[int(m.group(1))]
        ids = tuple(key.split("."))
        for aid in ids:
            if aid not in self.arrow_path:
                raise InputError(f"unknown path key {key!r}")
        src = self.paths[self.arrow_path[ids[0]]][0]
        cur = src
        for aid in ids:
            s, t, _ = self.paths[self.arrow_path[aid]]
            if s != cur:
                raise InputError(f"path key {key!r} is not a composable walk")
            cur = t
        return self.index[(src, cur, ids)]

    def path_key(self, k):
        s, _, ids = self.paths[k]
        return ".".join(ids) if ids else f"e{s}"


def _add_term(d, key, c):
    c = d.get(key, 0) + c
    if c:
        d[key] = c
    elif key in d:
        del d[key]


def _t2_mul(alg, x, y):
    out = {}
    for (u1, v1), c1 in x.items():
        for (u2, v2), c2 in y.items():
            u = alg.compose(u1, u2)
            if u is None:
                continue
            v = alg.compose(v1, v2)
            if v is None:
                continue
            _add_term(out, (u, v), c1 * c2)
    return out


def _t3_mul(alg, x, y):
    out = {}
    for (u1, v1, w1), c1 in x.items():
        for (u2, v2, w2), c2 in y.items():
            u = alg.compose(u1, u2)
            if u is None:
                continue
            v = alg.compose(v1, v2)
            if v is None:
                continue
            w = alg.compose(w1, w2)
            if w is None:
                continue
            _add_term(out, (u, v, w), c1 * c2)
    return out


class CoproductSpec:
    """Comultiplication and counit on a path algebra, given on generators.

    delta maps each generator key ('e1'..'en' and arrow ids) to a list of
    (left path key, right path key, coefficient) triples; counit maps each
    generator key to a scalar.  The comultiplication is extended to longer
    paths multiplicatively at construction time, and the counit by an exact
    solve of the counit law (free values 0; counit_consistent records
    whether the law could be satisfied at all).  unit optionally names the
    representation expected to be the tensor unit."""

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
        self.delta_gen = {}
        for key in keys:
            terms = {}
            for left, right, c in delta[key]:
                pair = (alg.parse_path_key(left), alg.parse_path_key(right))
                _add_term(terms, pair, frac(c))
            self.delta_gen[key] = terms
        self.eps_gen = {key: frac(counit[key]) for key in keys}
        self._delta = self._extend_delta()
        self.delta_unit = {}
        for v in range(1, quiver.n + 1):
            for pair, c in self.delta_gen[f"e{v}"].items():
                _add_term(self.delta_unit, pair, c)
        self._eps = self._extend_counit()
        self.counit_consistent = self._counit_laws_hold()

    def _extend_delta(self):
        alg = self.algebra
        full = [None] * len(alg)
        for k, (s, t, ids) in enumerate(alg.paths):
            if not ids:
                full[k] = dict(self.delta_gen[f"e{s}"])
            elif len(ids) == 1:
                full[k] = dict(self.delta_gen[ids[0]])
        for k, (s, t, ids) in enumerate(alg.paths):
            if len(ids) < 2:
                continue
            d = dict(self.delta_gen[ids[-1]])
            for aid in reversed(ids[:-1]):
                d = _t2_mul(alg, d, self.delta_gen[aid])
            full[k] = d
        return full

    def delta(self, k):
        return self._delta[k]

    def eps(self, k):
        return self._eps[k]

    def _extend_counit(self):
        """Generator values, then long-path values solving the counit law:
        one sparse row per path, side and kept path, its right-hand side in
        column len(long).  Free values are 0; an inconsistent law leaves
        every long path at 0."""
        alg = self.algebra
        long = [k for k, p in enumerate(alg.paths) if len(p[2]) >= 2]
        col = {k: c for c, k in enumerate(long)}
        eps = [exact.ZERO if len(ids) >= 2 else self.eps_gen[ids[0] if ids else f"e{s}"]
               for s, _, ids in alg.paths]
        if not long:
            return eps
        rhs = len(long)
        rows = []
        for p in range(len(alg)):
            for side in (0, 1):
                law = {p: {rhs: ONE}}  # kept path -> its row
                for (u, v), c in self._delta[p].items():
                    kept, evaluated = (u, v) if side == 0 else (v, u)
                    row = law.setdefault(kept, {})
                    j, x = ((col[evaluated], c) if evaluated in col
                            else (rhs, -c * eps[evaluated]))
                    row[j] = row.get(j, 0) + x
                rows += ({j: x for j, x in row.items() if x} for row in law.values())
        pivots = exact.eliminate(rows, rhs)
        if not any(rows[len(pivots):]):  # else some row reads 0 = nonzero
            for row, c in zip(rows, pivots):
                eps[long[c]] = row.get(rhs, exact.ZERO)
        return eps

    def _counit_witness(self, side):
        """First path where (eps (x) id)D (side 0) or (id (x) eps)D (side 1)
        fails to be the identity, or None."""
        for p in range(len(self.algebra)):
            out = {}
            for (u, v), c in self._delta[p].items():
                kept = v if side == 0 else u
                evaluated = u if side == 0 else v
                _add_term(out, kept, c * self._eps[evaluated])
            if out != {p: ONE}:
                return p
        return None

    def _counit_laws_hold(self):
        return self._counit_witness(0) is None and self._counit_witness(1) is None

    def is_bialgebra(self):
        n = self.quiver.n
        expected = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected[(self.algebra.trivial[i], self.algebra.trivial[j])] = ONE
        return self.delta_unit == expected

    def to_dict(self):
        alg = self.algebra
        delta = {}
        for key in alg.generator_keys():
            terms = [
                [alg.path_key(u), alg.path_key(v), str(c)]
                for (u, v), c in self.delta_gen[key].items()
            ]
            delta[key] = sorted(terms)
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
    def from_dict(cls, data, quiver=None):
        if not isinstance(data, dict):
            raise InputError("a coproduct spec must be a JSON object")
        if quiver is None:
            if "quiver" not in data:
                raise InputError("coproduct spec needs an embedded quiver")
            quiver = Quiver.from_dict(data["quiver"])
        delta, counit = data.get("delta"), data.get("counit")
        if not isinstance(delta, dict) or not isinstance(counit, dict):
            raise InputError("coproduct spec needs 'delta' and 'counit' objects")
        try:
            delta = {
                key: [(left, right, frac(c)) for left, right, c in terms]
                for key, terms in delta.items()
            }
            counit = {key: frac(c) for key, c in counit.items()}
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed coproduct spec: {exc}") from exc
        if not all(
            isinstance(k, str)
            for terms in delta.values()
            for term in terms
            for k in term[:2]
        ):
            raise InputError("malformed coproduct spec: path keys must be strings")
        unit = None
        if data.get("unit") is not None:
            unit = Representation.from_dict(data["unit"], quiver=quiver)
        return cls(
            quiver,
            delta,
            counit,
            name=data.get("name", "custom"),
            unit=unit,
        )


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

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"AxiomReport({self.structure}, {state})"


def _multiplicativity_witness(spec):
    alg = spec.algebra
    for i in range(len(alg)):
        for j in range(len(alg)):
            k = alg.compose(i, j)
            target = spec.delta(k) if k is not None else {}
            if _t2_mul(alg, spec.delta(i), spec.delta(j)) != target:
                return (alg.path_key(i), alg.path_key(j))
    return None


def _coassociativity_witness(spec):
    alg = spec.algebra
    for p in range(len(alg)):
        left, right = {}, {}
        for (u, v), c in spec.delta(p).items():
            for (x, y), d in spec.delta(u).items():
                _add_term(left, (x, y, v), c * d)
            for (x, y), d in spec.delta(v).items():
                _add_term(right, (u, x, y), c * d)
        if left != right:
            return alg.path_key(p)
    return None


def _unit_comultiplication_witness(spec):
    alg = spec.algebra
    du = spec.delta_unit
    middle = {}
    for (u, v), c in du.items():
        for (x, y), d in spec.delta(u).items():
            _add_term(middle, (x, y, v), c * d)
    trivials = list(alg.trivial.values())
    du_1 = {(u, v, t): c for (u, v), c in du.items() for t in trivials}
    one_du = {(t, u, v): c for (u, v), c in du.items() for t in trivials}
    if _t3_mul(alg, du_1, one_du) != middle:
        return "(D(1)(x)1)(1(x)D(1)) != (D(x)id)D(1)"
    if _t3_mul(alg, one_du, du_1) != middle:
        return "(1(x)D(1))(D(1)(x)1) != (D(x)id)D(1)"
    return None


def _counit_product_witness(spec):
    alg = spec.algebra
    n = len(alg)

    def eps_of(k):
        return spec.eps(k) if k is not None else Fraction(0)

    for x in range(n):
        for y in range(n):
            dy = spec.delta(y)
            for z in range(n):
                yz = alg.compose(y, z)
                lhs = eps_of(alg.compose(x, yz) if yz is not None else None)
                first = sum(
                    (
                        c * eps_of(alg.compose(x, u)) * eps_of(alg.compose(v, z))
                        for (u, v), c in dy.items()
                    ),
                    Fraction(0),
                )
                if first != lhs:
                    return (alg.path_key(x), alg.path_key(y), alg.path_key(z))
                second = sum(
                    (
                        c * eps_of(alg.compose(x, v)) * eps_of(alg.compose(u, z))
                        for (u, v), c in dy.items()
                    ),
                    Fraction(0),
                )
                if second != lhs:
                    return (alg.path_key(x), alg.path_key(y), alg.path_key(z))
    return None


def check_axioms(spec):
    """Exhaustively verify the weak bialgebra axioms on the path basis."""
    alg = spec.algebra
    failures = []
    w = _multiplicativity_witness(spec)
    if w is not None:
        failures.append(
            {"axiom": "multiplicativity", "witness": f"D(p*q) != D(p)D(q) at p={w[0]}, q={w[1]}"}
        )
    w = _coassociativity_witness(spec)
    if w is not None:
        failures.append(
            {"axiom": "coassociativity", "witness": f"(D(x)id)D != (id(x)D)D at {w}"}
        )
    w = spec._counit_witness(0)
    if w is not None:
        failures.append(
            {"axiom": "counit_left", "witness": f"(eps(x)id)D != id at {alg.path_key(w)}"}
        )
    w = spec._counit_witness(1)
    if w is not None:
        failures.append(
            {"axiom": "counit_right", "witness": f"(id(x)eps)D != id at {alg.path_key(w)}"}
        )
    w = _unit_comultiplication_witness(spec)
    if w is not None:
        failures.append({"axiom": "unit_comultiplication", "witness": w})
    w = _counit_product_witness(spec)
    if w is not None:
        failures.append(
            {
                "axiom": "counit_product_law",
                "witness": f"eps(xyz) law fails at x={w[0]}, y={w[1]}, z={w[2]}",
            }
        )
    return AxiomReport(spec.name, failures, spec.is_bialgebra(), spec.counit_consistent)


def canonical_wba(quiver):
    """The grouplike coproduct: D(p) = p (x) p and eps(p) = 1 on every path.
    Its module tensor product is the componentwise one; the unit is the
    all-k representation with identity arrow maps."""
    delta, counit = _grouplike_table(quiver)
    return CoproductSpec(
        quiver, delta, counit, name="canonical", unit=identity_rep(quiver)
    )


def _two_vertex_tables(variant):
    """Vertex-idempotent coproduct/counit tables for the five standard
    patterns; arrows are handled by the callers."""
    if variant == "a":
        delta = {
            "e1": [("e1", "e1", 1)],
            "e2": [("e2", "e2", 1), ("e1", "e2", 1), ("e2", "e1", 1)],
        }
        counit = {"e1": 1, "e2": 0}
    elif variant == "b":
        delta = {
            "e1": [("e1", "e1", 1), ("e2", "e2", 1)],
            "e2": [("e2", "e1", 1), ("e1", "e2", 1)],
        }
        counit = {"e1": 1, "e2": 0}
    elif variant == "c":
        delta = {
            "e2": [("e2", "e2", 1)],
            "e1": [("e1", "e1", 1), ("e1", "e2", 1), ("e2", "e1", 1)],
        }
        counit = {"e1": 0, "e2": 1}
    elif variant == "d":
        delta = {
            "e2": [("e2", "e2", 1), ("e1", "e1", 1)],
            "e1": [("e1", "e2", 1), ("e2", "e1", 1)],
        }
        counit = {"e1": 0, "e2": 1}
    elif variant == "e":
        delta = {"e1": [("e1", "e1", 1)], "e2": [("e2", "e2", 1)]}
        counit = {"e1": 1, "e2": 1}
    else:
        raise InputError(f"unknown catalog variant {variant!r}")
    return delta, counit


def catalog_k2():
    """The five coproduct structures on two isolated vertices (all pass
    check_axioms; (e) is weak but not a bialgebra)."""
    q = Quiver(2, [])
    out = []
    for variant in "abcde":
        delta, counit = _two_vertex_tables(variant)
        if variant in ("a", "b"):
            unit = simple(q, 1)
        elif variant in ("c", "d"):
            unit = simple(q, 2)
        else:
            unit = identity_rep(q)
        out.append(
            CoproductSpec(q, delta, counit, name=f"k2-{variant}", unit=unit)
        )
    return out


def kronecker_quiver(w):
    """Two vertices, w parallel arrows 1 -> 2 (ids r1..rw)."""
    if w < 1:
        raise InputError("the arrow count w must be at least 1")
    return Quiver(2, [Arrow(f"r{k}", 1, 2) for k in range(1, w + 1)])


def catalog_kronecker(w):
    """The five coproduct patterns on the w-arrow two-vertex quiver.

    (a)/(c): arrows primitive over the counit-1 vertex — weak bialgebras
    (in fact bialgebras).  (b)/(d): the same arrow formula forced by the
    counit law, which fails coassociativity at every arrow; included
    as defined, as known-bad entries check_axioms must flag.  (e): the
    canonical grouplike
    structure (a weak bialgebra that is not a bialgebra)."""
    q = kronecker_quiver(w)
    arrow_rules = {
        "a": lambda aid: [("e1", aid, 1), (aid, "e1", 1)],
        "b": lambda aid: [(aid, "e1", 1), ("e1", aid, 1)],
        "c": lambda aid: [("e2", aid, 1), (aid, "e2", 1)],
        "d": lambda aid: [(aid, "e2", 1), ("e2", aid, 1)],
    }
    out = []
    for variant in "abcd":
        delta, counit = _two_vertex_tables(variant)
        for a in q.arrows:
            delta[a.id] = arrow_rules[variant](a.id)
            counit[a.id] = 0
        unit = simple(q, 1) if variant in ("a", "b") else simple(q, 2)
        out.append(
            CoproductSpec(
                q, delta, counit, name=f"kronecker{w}-{variant}", unit=unit
            )
        )
    delta, counit = _grouplike_table(q)
    out.append(
        CoproductSpec(
            q, delta, counit, name=f"kronecker{w}-e", unit=identity_rep(q)
        )
    )
    return out


def _grouplike_table(quiver):
    delta = {}
    counit = {}
    for v in range(1, quiver.n + 1):
        delta[f"e{v}"] = [(f"e{v}", f"e{v}", 1)]
        counit[f"e{v}"] = 1
    for a in quiver.arrows:
        delta[a.id] = [(a.id, a.id, 1)]
        counit[a.id] = 1
    return delta, counit


def _int_or_frac(x):
    return x.numerator if x.denominator == 1 else x


def _path_entries(alg, rep):
    """Each basis path's action on rep as the list of its nonzero entries
    (row, column, value), indexed in rep's total space, integral values as
    ints.  Its block, at (target, source), is the identity or its last
    arrow's rows times its prefix's block, built earlier in alg.paths."""
    offs = [0]
    for d in rep.dims:
        offs.append(offs[-1] + d)
    arrows = {
        a.id: [{k: _int_or_frac(x) for k, x in enumerate(row) if x}
               for row in rep.map_for(a.id)]
        for a in rep.quiver.arrows
    }
    blocks, out = [], []
    for s, t, ids in alg.paths:
        if ids:
            mid = alg.paths[alg.arrow_path[ids[-1]]][0]
            prefix = blocks[alg.index[(s, mid, ids[:-1])]]
            block = exact.sparse_mul(arrows[ids[-1]], prefix)
        else:
            block = [{k: 1} for k in range(rep.dims[s - 1])]
        blocks.append(block)
        out.append([
            (r, k + offs[s - 1], _int_or_frac(x))
            for r, row in enumerate(block, offs[t - 1])
            for k, x in row.items()
        ])
    return out


def _act(entries_m, entries_n, dn, element, rows):
    """act(element) @ rows, act(element) being the element's action on
    M (x) N, M's index slowest: each term c * u (x) v takes column k*dn + l
    to row r*dn + r2 times c * u[r][k] * v[r2][l].  Columns whose row in
    rows is empty are skipped; the action itself is never formed."""
    out = [{} for _ in rows]
    for (i, j), c in element.items():
        c = _int_or_frac(c)
        for r, k, x in entries_m[i]:
            cx, base, target = c * x, k * dn, r * dn
            for r2, l, y in entries_n[j]:
                row = rows[base + l]
                if row:
                    acc = out[target + r2]
                    cxy = cx * y
                    for t, z in row.items():
                        acc[t] = acc.get(t, 0) + cxy * z
    return [{t: z for t, z in acc.items() if z} if acc else acc for acc in out]


def tensor_wba(spec, m, n):
    """Tensor product of representations twisted through the coproduct.

    Builds the componentwise tensor product as a module over the algebra's
    two-fold tensor square, cuts it down to the image of the idempotent
    D(1)-action, restricts the D(generator) actions to that image, and
    reads off a representation: vertex v's space is the image of e_v, and
    each arrow's map is its action in that vertex basis.  One elimination
    of an idempotent E gives E = B C with C B = I (B its pivot columns, C
    its RREF rows), so C is the change of basis and no system is solved.
    Matrices stay sparse rows, integral entries ints, until the arrow blocks
    are read off, so the work follows the nonzeros, not (dim M * dim N)^2;
    no coproduct's action on the whole square is formed (see _act).  The
    blocks are frozen Fractions as built, passed on without re-validation.
    Raises NotAQuiverAction when a restricted action leaves the image, an
    e_v does not act idempotently, or an arrow acts outside its (target,
    source) block (which happens for structures that are not weak
    bialgebras), and StructureMismatch when D(1) does not even act
    idempotently."""
    if m.quiver != spec.quiver or n.quiver != spec.quiver:
        raise WrongQuiverError("representations are not over the coproduct's quiver")
    dm, dn = m.total_dim(), n.total_dim()
    if dm == 0 or dn == 0:
        return zero_rep(spec.quiver)
    alg = spec.algebra
    em, en = _path_entries(alg, m), _path_entries(alg, n)
    size = dm * dn
    projector = _act(em, en, dn, spec.delta_unit, [{k: 1} for k in range(size)])
    if exact.sparse_mul(projector, projector) != projector:
        raise StructureMismatchError(
            "the coproduct of 1 does not act idempotently on the tensor square"
        )
    coordinates = [dict(row) for row in projector]
    pivots = exact.eliminate(coordinates, size)
    rank = len(pivots)
    del coordinates[rank:]
    basis = [{t: row[p] for t, p in enumerate(pivots) if p in row}
             for row in projector]
    # coordinates @ basis = I, so x = coordinates @ image if basis @ x = image
    actions = {}
    for key in alg.generator_keys():
        image = _act(em, en, dn, spec.delta_gen[key], basis)
        coords = exact.sparse_mul(coordinates, image)
        if exact.sparse_mul(basis, coords) != image:
            raise NotAQuiverActionError(
                f"D({key}) does not preserve the image of the D(1) action"
            )
        actions[key] = coords
    # The e_v coordinates sum to the identity (D(1) is the sum of the D(e_v)
    # and the basis lies in its image), and idempotents over Q that sum to
    # the identity are orthogonal: with e_v = B_v C_v as above, C_u B_v = 0
    # for u != v, so once each e_v is idempotent, [B_1 ... B_n] is a basis
    # adapted to the vertex decomposition, and [C_1; ...; C_n] its inverse.
    q = spec.quiver
    offs, cols, inverse = [0], [], []
    for v in range(1, q.n + 1):
        e = actions[f"e{v}"]
        if exact.sparse_mul(e, e) != e:
            raise NotAQuiverActionError(f"action of e{v} is not idempotent")
        rows = [dict(row) for row in e]
        vpivots = exact.eliminate(rows, rank)
        offs.append(offs[-1] + len(vpivots))
        cols.extend((e, p) for p in vpivots)
        inverse.extend(rows[:len(vpivots)])
    vbasis = [
        {t: e[r][p] for t, (e, p) in enumerate(cols) if p in e[r]}
        for r in range(rank)
    ]
    maps = []
    for a in q.arrows:
        full = exact.sparse_mul(inverse, exact.sparse_mul(actions[a.id], vbasis))
        t0, t1 = offs[a.target - 1], offs[a.target]
        s0, s1 = offs[a.source - 1], offs[a.source]
        if any(
            not (t0 <= r < t1 and s0 <= c < s1)
            for r, row in enumerate(full)
            for c in row
        ):
            raise NotAQuiverActionError(
                f"action of arrow {a.id} is not supported on the"
                f" ({a.target}, {a.source}) block"
            )
        maps.append(exact.freeze([
            [frac(row[c]) if c in row else exact.ZERO for c in range(s0, s1)]
            for row in full[t0:t1]
        ]))
    dims = tuple(b - a for a, b in zip(offs, offs[1:]))
    return Representation._trusted(q, dims, tuple(maps))


def is_discrete(spec):
    """Whether S(i) (x) S(j) is S(i) for i = j and 0 otherwise, evaluated
    through tensor_wba on every pair of vertex simples."""
    q = spec.quiver
    for i in range(1, q.n + 1):
        for j in range(1, q.n + 1):
            t = tensor_wba(spec, simple(q, i), simple(q, j))
            expected = [
                (1 if (v == i and i == j) else 0) for v in range(1, q.n + 1)
            ]
            if list(t.dims) != expected:
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
    keys = alg.generator_keys()
    delta = {
        key: [
            [alg.path_key(u), alg.path_key(v), str(c)]
            for (u, v), c in sorted(spec.delta_gen[key].items())
        ]
        for key in keys
    }
    counit = {key: str(c) for key, c in spec.eps_gen.items()}
    shift = rng.choice([1, -1, 2, Fraction(1, 2)])
    if rng.random() < 0.75:
        key = rng.choice(keys)
        u = rng.randrange(len(alg))
        v = rng.randrange(len(alg))
        terms = {
            (alg.parse_path_key(lk), alg.parse_path_key(rk)): frac(c)
            for lk, rk, c in delta[key]
        }
        _add_term(terms, (u, v), shift)
        delta[key] = [
            [alg.path_key(a), alg.path_key(b), str(c)]
            for (a, b), c in sorted(terms.items())
        ]
        info = {
            "kind": "delta",
            "generator": key,
            "pair": (alg.path_key(u), alg.path_key(v)),
            "shift": str(shift),
        }
    else:
        key = rng.choice(keys)
        counit[key] = str(frac(counit[key]) + shift)
        info = {"kind": "counit", "generator": key, "pair": None,
                "shift": str(shift)}
    out = CoproductSpec(
        spec.quiver, delta, counit, name=f"{spec.name}+corrupt", unit=spec.unit
    )
    out.perturbation_info = info
    if info["pair"] is not None:
        out.perturbation = (
            f"{info['kind']}[{key}] += {shift}"
            f" * {info['pair'][0]}(x){info['pair'][1]}"
        )
    else:
        out.perturbation = f"{info['kind']}[{key}] += {shift}"
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
        expected = None
        for e, idx in alg.trivial.items():
            if spec.delta_gen[aid] == {(idx, k): ONE, (k, idx): ONE}:
                expected = idx
                break
        if expected is None or (base is not None and expected != base):
            return False
        base = expected
        if spec.eps_gen[aid] != 0:
            return False
    e_key = alg.path_key(base)
    if spec.delta_gen[e_key] != {(base, base): ONE}:
        return False
    return (u == g and v == g) or (u != g and v != g)
