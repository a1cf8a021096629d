"""Independent checks of fpq's outputs.

Nothing here imports fpq.  Each checker recomputes the expected answer from
the rule or the definition, on the benchmark's own copy of the inputs, and
returns True when fpq's output agrees.  numpy is imported only inside
``radius_matches``, so that a worker reads its peak memory before any
checker library is loaded.
"""

import math

RIGHT = ">"


# --- typea-sweep ------------------------------------------------------------


def closed_form(word, i, j, shift):
    """Frobenius-Perron dimension of the interval module [i, j] on the A_n
    line with orientation ``word`` (position s: ">" is s -> s+1, "<" is
    s <- s+1), acting by the vertexwise tensor at the given shift.

    The boundary arrows of [i, j] are the arrow left of i and the arrow
    right of j; a missing one counts as pointing both in and out.  Both
    pointing in makes a sink, both pointing out a source, anything else a
    flow; sink wins ties.  Shift 0: a source gives min(i, n - j + 1), the
    others 1.  Shift 1: a sink gives min(i - 1, n - j), the others 0.
    """
    n = len(word) + 1
    left_in = i == 1 or word[i - 2] == RIGHT
    left_out = i == 1 or word[i - 2] != RIGHT
    right_in = j == n or word[j - 1] != RIGHT
    right_out = j == n or word[j - 1] == RIGHT
    sink = left_in and right_in
    source = not sink and left_out and right_out
    if shift == 0:
        return min(i, n - j + 1) if source else 1
    if shift == 1:
        return min(i - 1, n - j) if sink else 0
    return 0


def radius_matches(adjacency, value, tol=1e-6):
    """numpy's largest eigenvalue modulus of the witness adjacency lies
    within tol of the reported value."""
    import numpy as np

    if not adjacency:
        return abs(value) <= tol
    radius = float(max(abs(np.linalg.eigvals(np.array(adjacency, dtype=float)))))
    return abs(radius - value) <= tol


# --- hom-systems ------------------------------------------------------------


def integer_rank(rows, ncols):
    """Rank of an integer matrix by fraction-free elimination: each row
    update is p * row_i - f * row_r, followed by division by the row's
    content, so entries stay Python ints and the row space is unchanged."""
    a = [list(row) for row in rows if any(row)]
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        prow = a[rank]
        p = prow[c]
        for i in range(rank + 1, len(a)):
            row = a[i]
            f = row[c]
            if f:
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == len(a):
            break
    return rank


def hom_dimension(arrows, dims_m, maps_m, dims_n, maps_n):
    """dim Hom(M, N) as the kernel dimension of the commuting-square system
    f_t M_a = N_a f_s, one unknown matrix f_v of shape dims_n[v] x dims_m[v]
    per vertex.  arrows: (source, target) pairs, 1-based; maps: one int
    matrix per arrow, shaped (dim at target) x (dim at source)."""
    offsets = [0]
    for dm, dn in zip(dims_m, dims_n):
        offsets.append(offsets[-1] + dm * dn)
    total = offsets[-1]
    rows = []
    for (s, t), ma, na in zip(arrows, maps_m, maps_n):
        s -= 1
        t -= 1
        for p in range(dims_n[t]):
            for q in range(dims_m[s]):
                row = [0] * total
                for r in range(dims_m[t]):
                    row[offsets[t] + p * dims_m[t] + r] += ma[r][q]
                for r in range(dims_n[s]):
                    row[offsets[s] + r * dims_m[s] + q] -= na[p][r]
                rows.append(row)
    return total - integer_rank(rows, total)


def euler_form(arrows, x, y):
    """<x, y> = sum_v x_v y_v - sum over arrows s -> t of x_s y_t."""
    return sum(a * b for a, b in zip(x, y)) - sum(
        x[s - 1] * y[t - 1] for s, t in arrows
    )


# --- wba-tensor -------------------------------------------------------------


def kron(a, b, rows_a, cols_a, rows_b, cols_b):
    """Kronecker product, left factor indexing slowest."""
    return [
        [a[i][j] * b[k][l] for j in range(cols_a) for l in range(cols_b)]
        for i in range(rows_a)
        for k in range(rows_b)
    ]


def vertexwise_tensor(arrows, dims_m, maps_m, dims_n, maps_n):
    """(dims, maps) of the vertexwise tensor product: dimensions multiply
    per vertex and each arrow acts by the Kronecker product of its maps."""
    dims = [dm * dn for dm, dn in zip(dims_m, dims_n)]
    maps = [
        kron(ma, na, dims_m[t - 1], dims_m[s - 1], dims_n[t - 1], dims_n[s - 1])
        for (s, t), ma, na in zip(arrows, maps_m, maps_n)
    ]
    return dims, maps


def coproduct_dims(delta_units, dims_m, dims_n):
    """Vertex dimensions of M (x) N through a coproduct: the trace of the
    idempotent D(e_v) acting on the vertexwise tensor product, that is
    sum c * dim M_i * dim N_j over the trivial-path terms (e_i, e_j, c) of
    D(e_v).  delta_units[v - 1] lists D(e_v) as (left key, right key, c)
    with path keys as in fpq's serialized coproducts ("e3", "r1", ...)."""
    out = []
    for terms in delta_units:
        total = 0
        for left, right, c in terms:
            if _is_trivial(left) and _is_trivial(right):
                total += c * dims_m[int(left[1:]) - 1] * dims_n[int(right[1:]) - 1]
        out.append(total)
    return out


def _is_trivial(key):
    return key.startswith("e") and key[1:].isdigit()


def same_matrices(got, want):
    """Entrywise equality of two lists of matrices (ints vs Fractions fine)."""
    if len(got) != len(want):
        return False
    return all(
        len(g) == len(w) and all(list(gr) == list(wr) for gr, wr in zip(g, w))
        for g, w in zip(got, want)
    )


# --- cli-verify -------------------------------------------------------------


def duality_report_ok(report, n_max, triples):
    """The `fpq verify duality --n n_max --triples triples` report claims no
    failures, holds one case per triple and per interval of every
    orientation of A_2..A_n_max, and every interval case's dual_fpd equals
    the closed form of the same interval on the reversed orientation at
    shift 0."""
    cases = report.get("cases", [])
    if report.get("failures") != 0 or report.get("passes") != len(cases):
        return False
    flip = {">": "<", "<": ">"}
    intervals = 0
    for case in cases:
        key = case["key"]
        if not key.startswith("interval "):
            continue
        intervals += 1
        fields = dict(part.split("=", 1) for part in key.split()[1:])
        i, j = (int(x) for x in fields["v"].split(","))
        reversed_word = "".join(flip[c] for c in fields["w"])
        if case["detail"]["dual_fpd"] != closed_form(reversed_word, i, j, 0):
            return False
    want = sum(2 ** (n - 1) * n * (n + 1) // 2 for n in range(2, n_max + 1))
    return intervals == want and len(cases) - intervals == triples
