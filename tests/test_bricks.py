"""Bricks, brick sets, maximal-set enumeration, and band families."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from fpq.bricks import (
    BrickSet,
    DerivedObject,
    band_family,
    band_kronecker,
    band_two_paths,
    brick_set,
    hom_matrix,
    maximal_brick_sets,
)
from fpq.errors import BadPathsError, CapExceededError, InputError, WrongQuiverError
from fpq.quiver import Quiver, simple, zero_rep
from fpq.typea import OrientationWord, all_intervals, all_orientations, interval_rep
from oracles import brute_force_brick_sets, direct_sum

A2 = OrientationWord(">").to_quiver()
KRON = Quiver(2, [("r1", 1, 2), ("r2", 1, 2)])


def intervals(word):
    w = OrientationWord(word)
    q = w.to_quiver()
    return [
        DerivedObject(interval_rep(w, v, q), 0, label=f"M[{v[0]},{v[1]}]")
        for v in all_intervals(w.n)
    ]


def test_bricks_and_non_bricks():
    """The brick test is the diagonal of the hom matrix: End = k."""
    s1 = simple(A2, 1)
    objs = [DerivedObject(r, 0) for r in (s1, direct_sum(s1, s1), zero_rep(A2))]
    hom = hom_matrix(objs, objs)
    assert [hom[k][k] for k in range(3)] == [1, 4, 0]
    for k in (1, 2):
        with pytest.raises(InputError, match="candidate 1 is not a brick"):
            maximal_brick_sets([objs[0], objs[k]])


def test_derived_hom_between_shifts():
    """On a hereditary category the only nonzero derived homs between
    modules are at relative shifts 0 (hom) and 1 (ext)."""
    s1 = DerivedObject(simple(A2, 1), 0)
    s2 = DerivedObject(simple(A2, 2), 0)
    s2_up = DerivedObject(simple(A2, 2), 1)
    assert hom_matrix([s1], [s2])[0][0] == 0
    assert hom_matrix([s1], [s2_up])[0][0] == 1  # = dim Ext^1(S1, S2)
    assert hom_matrix([s2_up], [s1])[0][0] == 0
    assert hom_matrix([DerivedObject(simple(A2, 2), 5)], [s1])[0][0] == 0


def test_certificate_is_identity_for_brick_sets():
    objs = intervals(">")
    bs = brick_set([objs[0], objs[2]])  # M[1,1], M[2,2]
    assert isinstance(bs, BrickSet) and len(bs) == 2
    assert bs.certificate == [[1, 0], [0, 1]]
    # Hom(M[1,2], M[1,1]) = k
    with pytest.raises(InputError, match=r"hom certificate \[\[1, 0\], \[1, 1\]\]"):
        brick_set([objs[0], objs[1]])
    with pytest.raises(InputError):
        brick_set([objs[0], objs[0]])


def test_maximal_brick_sets_on_the_two_vertex_line():
    objs = intervals(">")  # M[1,1], M[1,2], M[2,2]
    sets = maximal_brick_sets(objs)
    assert sets == [(0, 2), (1,)]


def test_maximal_brick_sets_match_brute_force():
    """Every interval list of A2 at shifts 0-2, A3 at 0-1 and A4 at 0."""
    lists = 0
    for n, shifts in ((2, (0, 1, 2)), (3, (0, 1)), (4, (0,))):
        for w in all_orientations(n):
            q = w.to_quiver()
            reps = [interval_rep(w, v, q) for v in all_intervals(n)]
            pairs = [(r, s) for s in shifts for r in reps]
            got = maximal_brick_sets([DerivedObject(r, s) for r, s in pairs])
            assert got == brute_force_brick_sets(pairs), (w.dirs, shifts)
            lists += 1
    assert lists == 14


def test_maximal_brick_sets_rejects_bad_candidates():
    objs = intervals(">")
    with pytest.raises(InputError):
        maximal_brick_sets(objs + [objs[0]])
    bad = DerivedObject(direct_sum(objs[0].rep, objs[0].rep), 0)
    with pytest.raises(InputError):
        maximal_brick_sets(objs + [bad])


def test_memoized_brick_sets_are_fresh_lists_and_keep_every_check():
    objs = intervals("<>")[::-1]  # an order no other caller uses
    want = brute_force_brick_sets([(x.rep, 0) for x in objs])
    for _ in range(3):  # a first call that fills the memo, then hits
        got = maximal_brick_sets(objs)
        assert got == want
        got.append((0, 1, 2))
        got[0] = ()
    with pytest.raises(CapExceededError):  # the default-cap result is not reused
        maximal_brick_sets(objs, cap=1)
    assert maximal_brick_sets(objs) == want
    bad = objs + [DerivedObject(direct_sum(objs[0].rep, objs[0].rep), 0)]
    for _ in range(2):  # a failed check is not remembered as a success
        with pytest.raises(InputError, match="is not a brick"):
            maximal_brick_sets(bad)
        with pytest.raises(InputError, match="duplicates"):
            maximal_brick_sets(objs + [objs[1]])


def test_memoized_brick_sets_agree_across_threads():
    objs = intervals("<><")[::-1]  # an order no other caller uses
    want = brute_force_brick_sets([(x.rep, 0) for x in objs])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(lambda _: maximal_brick_sets(objs), range(32),
                                timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 32


def test_enumeration_cap_carries_partial_results():
    objs = intervals("><>")
    with pytest.raises(CapExceededError) as err:
        maximal_brick_sets(objs, cap=3)
    assert err.value.payload()["cap"] == 3
    assert isinstance(err.value.partial, list)


def test_mixed_shift_candidates_enumerate():
    """A rigid module always coexists with its own shift (Ext^1(M, M) = 0),
    while Hom(S1, S2[1]) = Ext^1(S1, S2) = k keeps that pair apart."""
    w = OrientationWord(">")
    q = w.to_quiver()
    s1 = interval_rep(w, (1, 1), q)
    s2 = interval_rep(w, (2, 2), q)
    assert maximal_brick_sets(
        [DerivedObject(s1, 0), DerivedObject(s1, 1)]
    ) == [(0, 1)]
    assert maximal_brick_sets(
        [DerivedObject(s1, 0), DerivedObject(s2, 1)]
    ) == [(0,), (1,)]


def test_band_modules_are_a_growing_brick_family():
    fam = band_family(KRON)
    for size in (1, 2, 5):
        objs = fam(size)
        assert len(objs) == size
        brick_set(objs)
    assert [(o.label, o.shift) for o in fam(2)] == [("band(1)", 0), ("band(2)", 0)]
    not_kronecker = band_family(A2)  # refused on the first call
    with pytest.raises(WrongQuiverError):
        not_kronecker(1)
    b1, b2 = band_kronecker(KRON, 1), band_kronecker(KRON, 2)
    assert b1.dims == (1, 1) and b2.map_for("r2") == ((2,),)
    assert hom_matrix([DerivedObject(b1, 0)], [DerivedObject(b2, 0)])[0][0] == 0


def test_band_kronecker_needs_the_kronecker_quiver():
    with pytest.raises(WrongQuiverError):
        band_kronecker(A2, 1)


def test_band_two_paths_on_a_commuting_square():
    square = Quiver(
        4, [("a", 1, 2), ("b", 2, 4), ("c", 1, 3), ("d", 3, 4)]
    )
    fam = band_family(square, ["a", "b"], ["c", "d"])
    objs = fam(4)
    brick_set(objs)
    assert [(o.label, o.shift) for o in objs[:2]] == [("band(1)", 0), ("band(2)", 0)]
    m = band_two_paths(square, ["a", "b"], ["c", "d"], 3)
    assert m.dims == (1, 1, 1, 1)
    with pytest.raises(BadPathsError):
        band_two_paths(square, ["a"], ["c", "d"], 1)  # endpoints differ
    with pytest.raises(BadPathsError, match="at least one arrow"):
        band_two_paths(square, [], ["c", "d"], 1)  # the CLI cannot pass an empty path
    with pytest.raises(BadPathsError):
        band_family(square, ["a", "b"], None)
    with pytest.raises(BadPathsError):
        band_family(square, None, ["c", "d"])
