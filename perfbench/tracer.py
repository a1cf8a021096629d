"""Span tracing of fpq's public functions, installed from outside fpq.

``Tracer.install`` replaces each function in ``FUNCTIONS`` by a wrapper in
every loaded fpq module that binds it: the modules import these functions
by name (``from .quiver import hom_dim``), so wrapping only the defining
module would miss most calls.  A function that no longer exists is listed
in ``absent`` and reported with zero calls.

Each thread keeps its own stack of open spans and its own span arrays, so
no lock is taken on the hot path.  A span opened with an empty stack in a
thread other than the main one (an ``FPQ_THREADS`` worker) takes as parent
the innermost span open in the main thread at that moment.  Spans stay in
memory until ``summary`` and ``write`` run at the end.

Self time is a span's duration minus the part of it that its child spans
cover; children from other threads may overlap, so their intervals are
merged before they are subtracted.
"""

import array
import functools
import gzip
import importlib
import sys
import threading
from time import perf_counter

FUNCTIONS = (
    "exact.rref",
    "exact.mat_mul",
    "exact.mat_add",
    "exact.mat_scale",
    "exact.kron",
    "exact.solve",
    "quiver.hom_dim",
    "quiver.tensor_vertexwise",
    "quiver.dual",
    "typea.interval_rep",
    "bricks.maximal_brick_sets",
    "bricks.compatibility_graph",
    "bricks.is_brick",
    "spectral.spectral_radius",
    "engine.fpd_exact",
    "engine.adjacency",
    "wba.tensor_wba",
    "cli.run",
)

_THREAD_BITS = 8  # span id = index << 8 | thread number


class _Buffer:
    """Spans recorded by one thread."""

    def __init__(self, number):
        self.number = number
        self.stack = []
        self.parent = array.array("q")
        self.name = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")


class Tracer:
    def __init__(self, functions=FUNCTIONS):
        self.functions = list(functions)
        self.absent = []
        self._replaced = []  # (module, attribute, original function)
        self.rref_entries = 0
        self.brick_calls = 0
        self.brick_repeats = 0
        self._seen_candidates = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []
        self._main = self._buffer()
        self._t0 = perf_counter()

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                if buf.number >= 1 << _THREAD_BITS:
                    raise RuntimeError("too many tracing threads")
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    # --- installation -------------------------------------------------------

    def install(self):
        """Wrap every binding of every listed function in loaded fpq modules."""
        for code, qualified in enumerate(self.functions):
            module_name, func_name = qualified.split(".")
            try:
                module = importlib.import_module("fpq." + module_name)
            except ImportError:
                self.absent.append(qualified)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(code, original, self._hook(qualified))
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "fpq" or name.startswith("fpq.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._replaced.append((mod, attr, original))

    def uninstall(self):
        """Put back every binding that ``install`` replaced."""
        for mod, attr, original in reversed(self._replaced):
            setattr(mod, attr, original)
        self._replaced.clear()

    def _hook(self, qualified):
        if qualified == "exact.rref":
            return self._count_rref
        if qualified == "bricks.maximal_brick_sets":
            return self._count_candidates
        return None

    def _count_rref(self, m, ncols=None, *_args, **_kwargs):
        rows = len(m)
        if ncols is None:
            ncols = len(m[0]) if rows else 0
        with self._lock:
            self.rref_entries += rows * ncols

    def _count_candidates(self, candidates, *_args, **_kwargs):
        key = tuple(c.key() for c in candidates)
        with self._lock:
            self.brick_calls += 1
            if key in self._seen_candidates:
                self.brick_repeats += 1
            else:
                self._seen_candidates.add(key)

    def _wrap(self, code, func, hook):
        tracer = self
        main = self._main

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            buf = tracer._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main.stack[-1] if buf is not main else -1
                except IndexError:
                    parent = -1
            index = len(buf.start)
            buf.parent.append(parent)
            buf.name.append(code)
            buf.end.append(0.0)
            stack.append(index << _THREAD_BITS | buf.number)
            buf.start.append(perf_counter())
            try:
                return func(*args, **kwargs)
            finally:
                buf.end[index] = perf_counter()
                stack.pop()

        return traced

    # --- results ------------------------------------------------------------

    def summary(self):
        """Raw per-function calls and self time plus the counters behind
        the ratio metrics; sums of these over processes stay meaningful."""
        names = self.functions
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        buffers = self._buffers
        mask = (1 << _THREAD_BITS) - 1
        child = [array.array("d", bytes(8 * len(b.start))) for b in buffers]
        foreign = {}
        hom_code = names.index("quiver.hom_dim")
        rref_code = names.index("exact.rref")
        solved = set()
        for b, buf in enumerate(buffers):
            for i, parent in enumerate(buf.parent):
                if parent < 0:
                    continue
                pb, pi = parent & mask, parent >> _THREAD_BITS
                if pb == b:
                    child[b][pi] += buf.end[i] - buf.start[i]
                else:
                    foreign.setdefault((pb, pi), []).append((buf.start[i], buf.end[i]))
                if buf.name[i] == rref_code:
                    # mark the nearest hom_dim span above this elimination
                    while parent >= 0:
                        pb, pi = parent & mask, parent >> _THREAD_BITS
                        if buffers[pb].name[pi] == hom_code:
                            solved.add(parent)
                            break
                        parent = buffers[pb].parent[pi]
        for (pb, pi), intervals in foreign.items():
            pbuf = buffers[pb]
            child[pb][pi] += _covered(intervals, pbuf.start[pi], pbuf.end[pi])
        hom_calls = 0
        for b, buf in enumerate(buffers):
            for i, code in enumerate(buf.name):
                calls[code] += 1
                self_s[code] += buf.end[i] - buf.start[i] - child[b][i]
                if code == hom_code:
                    hom_calls += 1
        return {
            "functions": {
                name: {"calls": calls[k], "self_s": self_s[k]}
                for k, name in enumerate(names)
            },
            "absent": list(self.absent),
            "hom_calls": hom_calls,
            "hom_hits": hom_calls - len(solved),
            "rref_entries": self.rref_entries,
            "brick_calls": self.brick_calls,
            "brick_repeats": self.brick_repeats,
        }

    def write(self, path):
        """All spans as gzipped tab-separated lines: span id, parent id (-1
        for none), function, start and end in microseconds since the
        tracer was made."""
        t0 = self._t0
        names = self.functions
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tfunction\tstart_us\tend_us\n")
            for buf in self._buffers:
                parent, name, start, end = buf.parent, buf.name, buf.start, buf.end
                fh.writelines(
                    f"{i << _THREAD_BITS | buf.number}\t{parent[i]}\t{names[name[i]]}"
                    f"\t{round((start[i] - t0) * 1e6)}\t{round((end[i] - t0) * 1e6)}\n"
                    for i in range(len(start))
                )


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
