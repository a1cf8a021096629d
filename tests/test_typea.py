"""Line-quiver orientation words, interval modules, and the closed form."""

import pytest

from fpq.errors import InputError, NotTypeAError
from fpq.quiver import Quiver, hom_dim
from fpq.typea import (
    IntervalKind,
    OrientationWord,
    all_indecomposables,
    all_intervals,
    all_orientations,
    classify,
    closed_form_fpd,
    interval_rep,
    orientation_of,
)


def test_orientation_word_to_quiver_roundtrip():
    w = OrientationWord("><>")
    q = w.to_quiver()
    assert q.n == 4
    assert [(a.source, a.target) for a in q.arrows] == [(1, 2), (3, 2), (3, 4)]
    assert orientation_of(q).dirs == "><>"


def test_orientation_of_rejects_other_quivers():
    with pytest.raises(NotTypeAError):
        orientation_of(Quiver(2, [("a", 1, 2), ("b", 1, 2)]))
    with pytest.raises(NotTypeAError):
        orientation_of(Quiver(3, [("a", 1, 3), ("b", 2, 3)]))


def test_enumeration_counts():
    assert len(all_orientations(4)) == 8
    assert len(all_intervals(4)) == 10
    objs = all_indecomposables(OrientationWord("><>"))
    assert [x.label for x in objs] == [f"M[{i},{j}]" for i, j in all_intervals(4)]
    assert all(x.shift == 0 for x in objs)
    w = OrientationWord("<<><>>><")  # a line no other caller builds
    for _ in range(3):  # a first call that fills the memo, then hits
        objs = all_indecomposables(w)
        assert [x.label for x in objs] == [f"M[{i},{j}]" for i, j in all_intervals(9)]
        objs.pop()
        objs[0] = None


def test_classification_table():
    """Boundary arrows pointing in = sink, out = source, through = flow."""
    assert classify(OrientationWord("><"), (2, 2)) is IntervalKind.SINK
    assert classify(OrientationWord("<>"), (2, 2)) is IntervalKind.SOURCE
    assert classify(OrientationWord(">>"), (2, 2)) is IntervalKind.FLOW
    assert classify(OrientationWord("<<"), (2, 2)) is IntervalKind.FLOW
    # whole-line intervals satisfy both boundary conditions vacuously
    assert classify(OrientationWord(">>"), (1, 3)) is IntervalKind.SINK
    # one-sided boundaries
    assert classify(OrientationWord(">"), (1, 1)) is IntervalKind.SOURCE
    assert classify(OrientationWord(">"), (2, 2)) is IntervalKind.SINK


def test_closed_form_values():
    w1, w2, w3 = OrientationWord("><"), OrientationWord("<>"), OrientationWord(">>")
    assert closed_form_fpd(w1, (2, 2), 0) == 1  # sink
    assert closed_form_fpd(w2, (2, 2), 0) == 2  # source: min(2, 2)
    assert closed_form_fpd(w3, (2, 2), 0) == 1  # flow
    assert closed_form_fpd(w1, (2, 2), 1) == 1  # sink: min(1, 1)
    assert closed_form_fpd(w2, (2, 2), 1) == 0
    assert closed_form_fpd(w3, (2, 2), 1) == 0
    for shift in (-2, -1, 2, 3):
        assert closed_form_fpd(w2, (2, 2), shift) == 0
    # a wider source interval where the min matters
    w = OrientationWord("<<>>")
    assert classify(w, (3, 3)) is IntervalKind.SOURCE
    assert closed_form_fpd(w, (3, 3), 0) == 3


def test_interval_rep_shapes():
    w = OrientationWord("><>")
    q = w.to_quiver()
    m = interval_rep(w, (2, 3), q)
    assert m.dims == (0, 1, 1, 0)
    # the one internal arrow (position 2, pointing 3 -> 2) is the identity
    assert m.map_for("a2") == ((1,),)
    assert m.map_for("a1") == ((),)  # 1x0
    assert hom_dim(m, m) == 1  # intervals are bricks
    with pytest.raises(InputError):
        interval_rep(w, (3, 2), q)
    with pytest.raises(InputError):
        interval_rep(w, (0, 2), q)
