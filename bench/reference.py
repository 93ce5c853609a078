"""Plain-integer reference computations for the benchmark's output checks.

Nothing here imports padicmat: every expected value is computed from
closed forms or by brute force over Python ints, so a check can only pass
when the program agrees with an independent computation.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# closed forms


def order_gl(n, q):
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i)."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def tv_noise_bound(cells, n, delta=1e-6):
    """Upper bound on TV(empirical, true law) holding with prob. >= 1 - delta.

    E[TV] <= 1/2 sum_i sqrt(p_i (1 - p_i) / n) <= 1/2 sqrt(cells / n) by
    Jensen, and one sample moves TV by at most 1/n, so McDiarmid adds
    sqrt(ln(1/delta) / (2 n)).  The bound follows from sampling noise alone,
    not from any particular seed.
    """
    return 0.5 * math.sqrt(cells / n) + math.sqrt(math.log(1 / delta) / (2 * n))


def tv_uniform(hist, cells):
    """Exact TV of an integer histogram from uniform over `cells` cells."""
    n = sum(hist.values())
    total = sum(abs(Fraction(c, n) - Fraction(1, cells)) for c in hist.values())
    total += (cells - len(hist)) * Fraction(1, cells)
    return total / 2


# ---------------------------------------------------------------------------
# matrices over Z/mod as lists of rows of ints


def parse_matrix(text, m):
    """Decode the CLI's "e,e,...;..." rows, entries "c0:c1:..." for m > 1."""
    rows = []
    for rtext in text.split(";"):
        row = []
        for etext in rtext.split(","):
            cs = tuple(int(v) for v in etext.split(":"))
            if len(cs) != m:
                raise ValueError("entry %r has %d coefficients" % (etext, len(cs)))
            row.append(cs[0] if m == 1 else cs)
        rows.append(row)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    return rows


def mat_mul(a, b, mod):
    n = len(a)
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(a[i], bt[j])) % mod for j in range(n)]
            for i in range(n)]


def transpose(a):
    return [list(r) for r in zip(*a)]


def trace(a, mod):
    return sum(a[i][i] for i in range(len(a))) % mod


def det_mod_prime(a, p):
    """Determinant over F_p by Gaussian elimination."""
    a = [[v % p for v in row] for row in a]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def det_int(a):
    """Exact integer determinant by cofactor expansion (n <= 3 here)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j]
               * det_int([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(n))


def symplectic_form(size):
    """[[0, I], [-I, 0]] with integer entries."""
    h = size // 2
    out = [[0] * size for _ in range(size)]
    for i in range(h):
        out[i][h + i] = 1
        out[h + i][i] = -1
    return out


def split_orthogonal_form(n):
    """The split symmetric form: ones on the anti-diagonal."""
    return [[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]


def preserves_form(M, K, mod):
    """M^t K M == K over Z/mod."""
    lhs = mat_mul(mat_mul(transpose(M), K, mod), M, mod)
    return lhs == [[v % mod for v in row] for row in K]


# ---------------------------------------------------------------------------
# GR(p^k, 2) = (Z/p^k)[z] / (z^2 + c1 z + c0), elements as pairs (a0, a1)


def gr2_mul(x, y, poly, mod):
    c0, c1 = poly[0], poly[1]
    a0, a1 = x
    b0, b1 = y
    s0, s1, s2 = a0 * b0, a0 * b1 + a1 * b0, a1 * b1
    # z^2 = -c1 z - c0
    return ((s0 - c0 * s2) % mod, (s1 - c1 * s2) % mod)


def gr2_conj(x, poly, mod):
    """The nontrivial automorphism: z -> -c1 - z, the other root."""
    a0, a1 = x
    return ((a0 - a1 * poly[1]) % mod, (-a1) % mod)


def is_unitary(M, poly, mod):
    """M M* == I, with M* the conjugate transpose, over GR(p^k, 2)."""
    n = len(M)
    for i in range(n):
        for j in range(n):
            acc = (0, 0)
            for t in range(n):
                pr = gr2_mul(M[i][t], gr2_conj(M[j][t], poly, mod), poly, mod)
                acc = ((acc[0] + pr[0]) % mod, (acc[1] + pr[1]) % mod)
            if acc != ((1 if i == j else 0), 0):
                return False
    return True


# ---------------------------------------------------------------------------
# brute-force group enumeration and trace laws


def gl_members(n, p, k):
    """All of GL_n(Z/p^k): integer matrices whose det is a unit mod p."""
    mod = p ** k
    for flat in itertools.product(range(mod), repeat=n * n):
        a = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if det_int(a) % p:
            yield a


def trace_histogram(mats, mod):
    hist = {}
    for a in mats:
        t = trace(a, mod)
        hist[t] = hist.get(t, 0) + 1
    return hist


def hist_summary(hist, cells):
    """The fields a tv report derives from its histogram."""
    return {"N": sum(hist.values()), "cell_count": cells,
            "occupied_cells": len(hist), "min_count": min(hist.values()),
            "max_count": max(hist.values()),
            "tv": float(tv_uniform(hist, cells))}


@functools.lru_cache(maxsize=None)
def gl_trace_summary(n, p, k):
    """Report fields of the exact d=1 trace law over GL_n(Z/p^k)."""
    mod = p ** k
    return hist_summary(trace_histogram(gl_members(n, p, k), mod), mod)


@functools.lru_cache(maxsize=None)
def gl_class_count_meeting_sl2(p):
    """GL_2(F_p)-conjugacy classes that meet SL_2(F_p), by orbit counting."""
    gl = list(gl_members(2, p, 1))
    inv = {}
    for g in gl:
        d = pow(det_int(g) % p, p - 2, p)
        inv[tuple(map(tuple, g))] = [[g[1][1] * d % p, -g[0][1] * d % p],
                                     [-g[1][0] * d % p, g[0][0] * d % p]]
    seen = set()
    classes = 0
    for a in gl:
        if det_int(a) % p != 1 or tuple(map(tuple, a)) in seen:
            continue
        classes += 1
        for g in gl:
            c = mat_mul(mat_mul(g, a, p), inv[tuple(map(tuple, g))], p)
            seen.add(tuple(map(tuple, c)))
    return classes


# ---------------------------------------------------------------------------
# polynomials over F_p as little-endian int lists


def poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_mod(a, b, p):
    a = poly_trim([v % p for v in a])
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        s = len(a) - len(b)
        for j, y in enumerate(b):
            a[s + j] = (a[s + j] - c * y) % p
        a = poly_trim(a)
    return a


def poly_gcd(a, b, p):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(a, b, p)
    return a


def is_radical_of(r, f, p):
    """r is monic and squarefree, r | f and f | r^deg f: then r = rad(f)."""
    if not r or r[-1] != 1:
        return False
    deriv = poly_trim([i * c % p for i, c in enumerate(r)][1:])
    if len(r) > 1 and len(poly_gcd(r, deriv, p)) != 1:
        return False
    if poly_mod(f, r, p):
        return False
    power = [1]
    for _ in range(len(f) - 1):
        power = poly_mul(power, r, p)
    return not poly_mod(power, f, p)
