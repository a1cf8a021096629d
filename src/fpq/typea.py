"""Linearly ordered (A_n) quivers: orientation words, interval modules,
their sink/source/flow classification, and the closed-form values of the
Frobenius-Perron dimension for interval modules at shifts 0 and 1.

An orientation word is a string over {">", "<"} of length n-1; position s
(1-based) describes the arrow between vertices s and s+1:

    ">" : s -> s+1        "<" : s <- s+1

The interval module on [i, j] (1 <= i <= j <= n) has k at vertices i..j,
identity on the arrows strictly inside the interval, and zero elsewhere;
these are exactly the indecomposables, n(n+1)/2 of them.

Classification by the boundary arrows (the arrow left of i and right of j;
a missing boundary at the end of the line counts as pointing inward):

    sink    both boundary arrows point into the interval
    source  both point out of it
    flow    both exist and point the same way

The full line [1, n] is vacuously both a sink and a source; ties break
sink > source > flow (the two branches give equal values below).
"""

import enum

from .bricks import DerivedObject, candidate_index
from .errors import InputError, NotTypeAError
from .quiver import Quiver, Representation

RIGHT = ">"
LEFT = "<"


class IntervalKind(enum.Enum):
    SINK = "sink"
    SOURCE = "source"
    FLOW = "flow"


class OrientationWord:
    """Orientation of the A_n line, n >= 1 (empty word for n = 1)."""

    def __init__(self, dirs):
        dirs = str(dirs)
        if any(c not in (RIGHT, LEFT) for c in dirs):
            raise InputError(f"orientation word must be over '><', got {dirs!r}")
        self.dirs = dirs
        self.n = len(dirs) + 1

    def arrow_dir(self, s):
        """Direction of the arrow between vertices s and s+1 (1 <= s < n)."""
        return self.dirs[s - 1]

    def to_quiver(self):
        arrows = []
        for s in range(1, self.n):
            if self.dirs[s - 1] == RIGHT:
                arrows.append((f"a{s}", s, s + 1))
            else:
                arrows.append((f"a{s}", s + 1, s))
        return Quiver(self.n, arrows)

    def __eq__(self, other):
        return isinstance(other, OrientationWord) and self.dirs == other.dirs

    def __hash__(self):
        return hash(self.dirs)

    def __repr__(self):
        return f"OrientationWord({self.dirs!r})"


def all_orientations(n):
    """All 2^(n-1) orientation words of the A_n line, lexicographic."""
    if n < 1:
        raise InputError("n must be >= 1")
    words = [""]
    for _ in range(n - 1):
        words = [w + c for w in words for c in (RIGHT, LEFT)]
    return [OrientationWord(w) for w in sorted(words)]


def _check_interval(w, v):
    i, j = v
    if not (1 <= i <= j <= w.n):
        raise InputError(f"interval ({i},{j}) outside 1 <= i <= j <= {w.n}")
    return i, j


def classify(w, v):
    """Sink/source/flow kind of the interval v = (i, j) on orientation w.

    A missing boundary arrow (i = 1 or j = n) satisfies both the inward and
    the outward condition, so boundary intervals are sinks or sources, never
    flows; [1, n] meets both and resolves to sink."""
    i, j = _check_interval(w, v)
    sink = (i == 1 or w.arrow_dir(i - 1) == RIGHT) and (
        j == w.n or w.arrow_dir(j) == LEFT
    )
    if sink:
        return IntervalKind.SINK
    source = (i == 1 or w.arrow_dir(i - 1) == LEFT) and (
        j == w.n or w.arrow_dir(j) == RIGHT
    )
    if source:
        return IntervalKind.SOURCE
    return IntervalKind.FLOW


def interval_rep(w, v, quiver=None):
    """The interval module on [i, j] as a representation of w's quiver.

    Pass quiver to build over an existing Quiver object whose shape matches
    w (same endpoints per position), e.g. one parsed from JSON."""
    i, j = _check_interval(w, v)
    if quiver is None:
        quiver = w.to_quiver()
    dims = [1 if i <= s <= j else 0 for s in range(1, w.n + 1)]
    one = [[1]]
    maps = {}
    for s in range(1, w.n):
        if i <= s < j:
            maps[quiver.arrows[s - 1].id] = one
    return Representation(quiver, dims, maps)


def all_intervals(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def interval_index(w, quiver=None):
    """The CandidateIndex of all_indecomposables(w, quiver), memoized by
    the orientation and the quiver, which determine the list."""
    if quiver is None:
        quiver = w.to_quiver()
    return candidate_index((w.dirs, quiver), lambda: [
        DerivedObject(interval_rep(w, (i, j), quiver), 0, label=f"M[{i},{j}]")
        for i, j in all_intervals(w.n)
    ])


def all_indecomposables(w, quiver=None):
    """The complete list of indecomposables of the A_n line: every interval
    module as a shift-0 DerivedObject labeled M[i,j], ordered by (i, j).
    Built once per orientation and quiver; each call returns a new list."""
    return list(interval_index(w, quiver).objs)


def closed_form_fpd(w, v, shift):
    """Closed-form Frobenius-Perron dimension of (interval v)[shift] acting
    by the vertex-wise tensor product.  Zero outside shifts 0 and 1."""
    i, j = _check_interval(w, v)
    n = w.n
    kind = classify(w, v)
    if shift == 0:
        if kind is IntervalKind.SOURCE:
            return min(i, n - j + 1)
        return 1  # sink and flow
    if shift == 1:
        if kind is IntervalKind.SINK:
            return min(i - 1, n - j)
        return 0  # source and flow
    return 0


def orientation_of(quiver):
    """Recover the orientation word of a quiver that is an A_n line with
    vertices 1..n and one arrow between s and s+1 per position s, in
    position order.  Raises NotTypeA otherwise."""
    n = quiver.n
    if len(quiver.arrows) != max(n - 1, 0):
        raise NotTypeAError(
            f"an A_{n} line needs {n - 1} arrows, found {len(quiver.arrows)}"
        )
    dirs = []
    for s, a in enumerate(quiver.arrows, start=1):
        if (a.source, a.target) == (s, s + 1):
            dirs.append(RIGHT)
        elif (a.source, a.target) == (s + 1, s):
            dirs.append(LEFT)
        else:
            raise NotTypeAError(
                f"arrow {a.id} joins {a.source} and {a.target}; expected the "
                f"pair ({s}, {s + 1}) at position {s}"
            )
    return OrientationWord("".join(dirs))
