"""Tests of the benchmark itself: every checker accepts fpq's right answer
and rejects a wrong one, and the tracer counts what it wraps.

    python3 perfbench/selftest.py
"""

import copy
import json
import os
import sys
import tempfile
import threading
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _small(cls, **sizes):
    workload = type(cls.__name__, (cls,), sizes)()
    workload.setup(5)
    return workload


class TypeASweepCheck(unittest.TestCase):
    def setUp(self):
        self.w = _small(workloads.TypeASweep)
        self.cases = self.w._sweep[:40]

    def test_accepts_fpq_values(self):
        for case in self.cases:
            self.assertTrue(self.w.check(case, self.w.run(case)))
        self.assertEqual(self.w.finish(), 0)

    def test_rejects_a_value_off_by_one(self):
        case = self.cases[0]
        value, adj = self.w.run(case)
        self.assertFalse(self.w.check(case, (value + 1, adj)))

    def test_rejects_an_adjacency_with_another_radius(self):
        case = next(c for c in self.cases if self.w.run(c)[0] >= 1)
        value, adj = self.w.run(case)
        bigger = tuple(tuple(x + 1 for x in row) for row in adj)
        self.assertTrue(self.w.check(case, (value, adj)))
        self.assertTrue(self.w.check(case, (value, bigger)))  # radius comes later
        self.assertTrue(self.w.check(case, (value, bigger)))
        self.assertEqual(self.w.finish(), 2)

    def test_closed_form_agrees_with_fpq_typea(self):
        from fpq import typea

        for n in range(1, 6):
            for w in typea.all_orientations(n):
                for i, j in typea.all_intervals(n):
                    for shift in (-1, 0, 1, 2):
                        self.assertEqual(
                            checks.closed_form(w.dirs, i, j, shift),
                            typea.closed_form_fpd(w, (i, j), shift),
                        )


class HomSystemsCheck(unittest.TestCase):
    def setUp(self):
        self.w = _small(workloads.HomSystems, POOL_ROUNDS=1)
        self.cases = self.w._pairs

    def test_accepts_fpq_values(self):
        for case in self.cases:
            self.assertTrue(self.w.check(case, self.w.run(case)))

    def test_rejects_a_hom_or_ext_off_by_one(self):
        case = next(c for c in self.cases if sum(c[1][0][0]) and sum(c[1][1][0]))
        hom, ext = self.w.run(case)
        self.assertFalse(self.w.check(case, (hom + 1, ext)))
        self.assertFalse(self.w.check(case, (hom, ext + 1)))
        self.assertFalse(self.w.check(case, (hom - 1, ext - 1)))

    def test_integer_rank(self):
        self.assertEqual(checks.integer_rank([[2, 4], [1, 2]], 2), 1)
        self.assertEqual(checks.integer_rank([[0, 3, 1], [2, 0, 0], [2, 3, 1]], 3), 2)
        self.assertEqual(checks.integer_rank([[0, 0]], 2), 0)

    def test_hom_between_simples_of_an_arrow(self):
        # 1 -> 2: Hom(P1, S1) = k where P1 = (k -> k); Hom(S1, P1) = 0.
        p1 = ([1, 1], [[[1]]])
        s1 = ([1, 0], [[]])
        self.assertEqual(checks.hom_dimension([(1, 2)], *p1, *s1), 1)
        self.assertEqual(checks.hom_dimension([(1, 2)], *s1, *p1), 0)


class WbaTensorCheck(unittest.TestCase):
    def setUp(self):
        self.w = _small(workloads.WbaTensor, POOL_ROUNDS=1)
        self.cases = self.w._rounds[0]

    @staticmethod
    def _as(out, dims=None, maps=None):
        return types.SimpleNamespace(
            dims=list(out.dims) if dims is None else dims,
            maps=[[list(r) for r in m] for m in out.maps] if maps is None else maps,
        )

    def test_accepts_fpq_products(self):
        for case in self.cases:
            self.assertTrue(self.w.check(case, self.w.run(case)))

    def test_rejects_a_changed_matrix_entry(self):
        for case in (c for c in self.cases if c[2]):  # canonical
            out = self._as(self.w.run(case))
            k = next((k for k, m in enumerate(out.maps) if m and m[0]), None)
            if k is not None:
                break
        out.maps[k][0][0] += 1
        self.assertFalse(self.w.check(case, out))

    def test_rejects_a_changed_dimension(self):
        for case in (self.cases[0], self.cases[-1]):  # canonical, catalog
            out = self.w.run(case)
            dims = list(out.dims)
            dims[0] += 1
            self.assertFalse(self.w.check(case, self._as(out, dims=dims)))

    def test_coproduct_dims_of_the_grouplike_unit(self):
        units = [[("e1", "e1", 1)], [("e2", "e2", 1), ("e1", "r1", 1)]]
        self.assertEqual(checks.coproduct_dims(units, [2, 3], [1, 2]), [2, 6])


class CliVerifyCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import fpq.cli

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            code = fpq.cli.run([
                "verify", "duality", "--n", str(run.CLI_N),
                "--triples", str(run.CLI_TRIPLES), "--seed", "9", "--out", path,
            ])
            with open(path, "rb") as fh:
                cls.raw = fh.read()
        cls.code = code
        cls.report = json.loads(cls.raw)

    def _ok(self, report):
        return checks.duality_report_ok(report, run.CLI_N, run.CLI_TRIPLES)

    def test_accepts_the_report(self):
        self.assertEqual(self.code, 0)
        self.assertTrue(self._ok(self.report))

    def test_rejects_reported_failures(self):
        bad = copy.deepcopy(self.report)
        bad["failures"] = 1
        self.assertFalse(self._ok(bad))

    def test_rejects_a_dual_fpd_off_by_one(self):
        bad = copy.deepcopy(self.report)
        case = next(c for c in bad["cases"] if c["key"].startswith("interval "))
        case["detail"]["dual_fpd"] += 1
        self.assertFalse(self._ok(bad))

    def test_rejects_a_missing_case(self):
        bad = copy.deepcopy(self.report)
        bad["cases"].pop()
        bad["passes"] -= 1
        self.assertFalse(self._ok(bad))

    def test_rejects_differing_bytes_and_a_bad_exit(self):
        good = {"code": 0, "stdout": self.raw}
        self.assertIsNone(run._cli_wrong(good, None))
        self.assertIsNone(run._cli_wrong(good, good))
        other = {"code": 0, "stdout": self.raw.replace(b"\n", b"\n ", 1)}
        self.assertIsNotNone(run._cli_wrong(other, good))
        self.assertIsNotNone(run._cli_wrong({"code": 1, "stdout": self.raw}, None))


class TracerTest(unittest.TestCase):
    def test_counts_calls_hits_and_absent_functions(self):
        from fpq import quiver, typea

        t = tracer.Tracer(tracer.FUNCTIONS + ("exact.no_such_function",))
        t.install()
        try:
            w = typea.OrientationWord("><")
            q = quiver.Quiver(3, [("selftest1", 1, 2), ("selftest2", 3, 2)])
            a = typea.interval_rep(w, (1, 2), q)
            b = typea.interval_rep(w, (2, 3), q)
            quiver.hom_dim(a, b)
            quiver.hom_dim(a, b)
            worker = threading.Thread(target=quiver.hom_dim, args=(b, a))
            worker.start()
            worker.join(timeout=30)
            self.assertFalse(worker.is_alive())
        finally:
            t.uninstall()
        s = t.summary()
        self.assertEqual(s["absent"], ["exact.no_such_function"])
        self.assertEqual(s["functions"]["quiver.hom_dim"]["calls"], 3)
        self.assertEqual(s["functions"]["typea.interval_rep"]["calls"], 2)
        # only the repeated (a, b) call is answered without elimination
        self.assertEqual(s["hom_hits"], 1)
        self.assertEqual(s["functions"]["exact.no_such_function"]["calls"], 0)
        for f in s["functions"].values():
            self.assertGreaterEqual(f["self_s"], 0.0)

    def test_covered_merges_overlapping_children(self):
        self.assertAlmostEqual(tracer._covered([(1, 3), (2, 4), (6, 7)], 0, 10), 4)
        self.assertAlmostEqual(tracer._covered([(1, 3), (2, 12)], 0, 10), 9)


if __name__ == "__main__":
    unittest.main()
