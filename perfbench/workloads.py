"""The in-process workloads: inputs made from a seed, one timed call per
case, and the independent check of each output.

A workload yields rounds, each a list of cases.  The timed pass runs whole
rounds until its time is up or the rounds run out; each round's outputs
are checked after the round and then dropped.  ``finish`` runs the checks
that load numpy, after the peak memory is read, and returns how many cases
failed them.  fpq is imported in ``setup``, so that the import is part of
the set-up time.

* typea-sweep: every round is the same complete A_5 sweep, in an order
  shuffled by the seed.  Rounds after the first find the hom cache warm.
* hom-systems: a pool of distinct pairs, made at set-up and cut into
  rounds.  The pool is fixed, so the memory it holds does not depend on
  how far a run gets, and no pair is ever solved twice.
* wba-tensor: a pool of rounds, each one product per structure with the
  total dimension of each factor fixed per structure, so that every round
  costs about the same whatever the seed.
"""

import random
from fractions import Fraction

import checks

ENTRIES = (-2, -1, 0, 1, 2)
# fpq keeps Fraction entries as given, so the inputs share these five
# objects instead of holding one Fraction per entry.
FRACTIONS = {x: Fraction(x) for x in ENTRIES}


def _words(n):
    """All orientation words of the A_n line, lexicographic."""
    words = [""]
    for _ in range(n - 1):
        words = [w + c for w in words for c in "<>"]
    return sorted(words)


def _line_arrows(word):
    """(id, source, target) of the A_n line: position s joins s and s+1."""
    return [
        (f"a{s}", s, s + 1) if c == ">" else (f"a{s}", s + 1, s)
        for s, c in enumerate(word, start=1)
    ]


def _random_maps(rng, arrows, dims):
    """One matrix per arrow, as a tuple of rows, entries uniform in -2..2."""
    maps = []
    for _, s, t in arrows:
        rows, cols = dims[t - 1], dims[s - 1]
        flat = rng.choices(ENTRIES, k=rows * cols)
        maps.append(tuple(tuple(flat[r * cols:(r + 1) * cols]) for r in range(rows)))
    return tuple(maps)


def _fractions(maps):
    return [[[FRACTIONS[x] for x in row] for row in m] for m in maps]


class Workload:
    def finish(self):
        return 0


class TypeASweep(Workload):
    """engine.fpd_exact on every interval module of every orientation of
    A_N, at shifts 0 and 1.  The numpy radius check runs in ``finish``,
    once per distinct output, with the number of cases that gave it."""

    name = "typea-sweep"
    N = 5

    def setup(self, seed):
        from fpq import engine
        from fpq.quiver import Quiver, Representation

        self._engine = engine
        one = [[1]]
        cases = []
        for word in _words(self.N):
            arrows = _line_arrows(word)
            q = Quiver(self.N, arrows)
            for i in range(1, self.N + 1):
                for j in range(i, self.N + 1):
                    dims = [1 if i <= v <= j else 0 for v in range(1, self.N + 1)]
                    maps = {aid: one for aid, s, t in arrows if i <= min(s, t) < j}
                    rep = Representation(q, dims, maps)
                    for shift in (0, 1):
                        cases.append((word, i, j, shift, rep))
        random.Random(seed).shuffle(cases)
        self._sweep = cases
        self._radii = {}  # (value, adjacency) -> cases that gave it

    def rounds(self):
        while True:
            yield self._sweep

    def run(self, case):
        report = self._engine.fpd_exact(case[4], shift=case[3])
        adj = report.extra["adjacency"]
        return report.value, tuple(map(tuple, adj)) if adj is not None else None

    def check(self, case, out):
        word, i, j, shift, _ = case
        if out[0] != checks.closed_form(word, i, j, shift):
            return False
        self._radii[out] = self._radii.get(out, 0) + 1
        return True

    def finish(self):
        return sum(
            count
            for (value, adj), count in self._radii.items()
            if not checks.radius_matches([list(row) for row in adj or ()], value)
        )


class HomSystems(Workload):
    """dim Hom(M, N) and dim Ext^1(N, M) on distinct seeded pairs over
    seeded random acyclic quivers: two cold hom systems per pair."""

    name = "hom-systems"
    MAX_VERTICES = 6
    MAX_DIM = 4
    ROUND = 50
    POOL_ROUNDS = 120

    def setup(self, seed):
        from fpq import quiver
        from fpq.quiver import Quiver, Representation

        self._quiver = quiver
        rng = random.Random(seed)
        seen = set()
        pairs = []
        while len(pairs) < self.ROUND * self.POOL_ROUNDS:
            n = rng.randint(2, self.MAX_VERTICES)
            arrows = []
            for k in range(1, rng.randint(1, 2 * n) + 1):
                s = rng.randint(1, n - 1)
                arrows.append((f"a{k}", s, rng.randint(s + 1, n)))
            data = []
            for _ in range(2):
                dims = tuple(rng.randint(0, self.MAX_DIM) for _ in range(n))
                data.append((dims, _random_maps(rng, arrows, dims)))
            key = hash((n, tuple(arrows), tuple(data)))
            if key in seen:  # a rare false match only draws another pair
                continue
            seen.add(key)
            q = Quiver(n, arrows)
            reps = [Representation(q, dims, _fractions(maps)) for dims, maps in data]
            pairs.append(([(s, t) for _, s, t in arrows], data, reps))
        self._pairs = pairs

    def rounds(self):
        for start in range(0, len(self._pairs), self.ROUND):
            yield self._pairs[start:start + self.ROUND]

    def run(self, case):
        m, n = case[2]
        return self._quiver.hom_dim(m, n), self._quiver.dim_ext1(n, m)

    def check(self, case, out):
        arrows, (m, n), _ = case
        hom = checks.hom_dimension(arrows, *m, *n)
        ext = checks.hom_dimension(arrows, *n, *m) - checks.euler_form(arrows, n[0], m[0])
        return out == (hom, ext)


class WbaTensor(Workload):
    """wba.tensor_wba through the canonical coproduct on every orientation
    of A_2..A_4 and through the Kronecker catalog structures, w = 1..3."""

    name = "wba-tensor"
    MAX_DIM = 3
    POOL_ROUNDS = 100

    def setup(self, seed):
        from fpq import wba

        self._wba = wba
        structures = []  # (spec, arrows, total dimension per factor, canonical)
        for n in (2, 3, 4):
            for word in _words(n):
                spec = wba.canonical_wba(_quiver_of(word))
                structures.append((spec, _arrows_of(spec), n + n // 2, True))
        for w in (1, 2, 3):
            for spec in wba.catalog_kronecker(w):
                structures.append((spec, _arrows_of(spec), 4, False))
        rng = random.Random(seed)
        self._rounds = [
            [self._pair(rng, *structure) for structure in structures]
            for _ in range(self.POOL_ROUNDS)
        ]

    def _pair(self, rng, spec, arrows, total, canonical):
        from fpq.quiver import Representation

        data = []
        for _ in range(2):
            dims = None
            while dims is None or sum(dims) != total:
                dims = [rng.randint(0, self.MAX_DIM) for _ in range(spec.quiver.n)]
            data.append((dims, _random_maps(rng, arrows, dims)))
        reps = [Representation(spec.quiver, dims, _fractions(maps)) for dims, maps in data]
        return spec, arrows, canonical, data, reps

    def rounds(self):
        yield from self._rounds

    def run(self, case):
        return self._wba.tensor_wba(case[0], *case[4])

    def check(self, case, out):
        spec, arrows, canonical, ((dims_m, maps_m), (dims_n, maps_n)), _ = case
        units = [
            [(left, right, Fraction(c)) for left, right, c in spec.to_dict()["delta"][f"e{v}"]]
            for v in range(1, spec.quiver.n + 1)
        ]
        if list(out.dims) != checks.coproduct_dims(units, dims_m, dims_n):
            return False
        if canonical:
            st = [(s, t) for _, s, t in arrows]
            dims, maps = checks.vertexwise_tensor(st, dims_m, maps_m, dims_n, maps_n)
            return list(out.dims) == dims and checks.same_matrices(out.maps, maps)
        return True


def _quiver_of(word):
    from fpq.quiver import Quiver

    return Quiver(len(word) + 1, _line_arrows(word))


def _arrows_of(spec):
    return [(a.id, a.source, a.target) for a in spec.quiver.arrows]


WORKLOADS = {w.name: w for w in (TypeASweep, HomSystems, WbaTensor)}
