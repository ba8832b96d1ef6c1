"""Dense matrix helpers over tower elements (sizes are at most ~8x8)."""

from __future__ import annotations

from .errors import PrecisionExhausted
from .padic import TowerSpec


def mat_id(base: TowerSpec, n: int):
    return [
        [base.one() if i == j else base.zero() for j in range(n)] for i in range(n)
    ]


def mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def mat_inv(a):
    """Gaussian elimination with minimal-valuation pivoting."""
    n = len(a)
    base = a[0][0].tower
    work = [list(row) for row in a]
    inv = mat_id(base, n)
    for col in range(n):
        pivot, best = None, None
        for r in range(col, n):
            x = work[r][col]
            if x.is_zero():
                continue
            v = x.phi_valuation()
            if best is None or v < best:
                pivot, best = r, v
        if pivot is None:
            raise PrecisionExhausted("matrix not invertible within precision")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        piv_inv = work[col][col].inv()
        work[col] = [x * piv_inv for x in work[col]]
        inv[col] = [x * piv_inv for x in inv[col]]
        for r in range(n):
            if r == col or work[r][col].is_zero():
                continue
            c = work[r][col]
            work[r] = [x - c * y for x, y in zip(work[r], work[col])]
            inv[r] = [x - c * y for x, y in zip(inv[r], inv[col])]
    return inv


# polynomials with LocalElem coefficients ------------------------------------


def poly_mul(a, b, base):
    out = [base.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def poly_add(a, b, base):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else base.zero()
        y = b[i] if i < len(b) else base.zero()
        out.append(x + y)
    return out


def poly_neg(a):
    return [-x for x in a]


def charpoly(a):
    """Coefficients of det(T - a), lowest degree first."""
    n = len(a)
    base = a[0][0].tower
    one, zero = base.one(), base.zero()
    # entries of T - a as degree-<=1 polynomials
    ent = [
        [([-a[i][j], one] if i == j else [-a[i][j]]) for j in range(n)]
        for i in range(n)
    ]
    states = {0: [one]}
    for i in range(n):
        new: dict = {}
        for mask, val in states.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                sign = (-1) ** bin(mask >> (j + 1)).count("1")
                term = poly_mul(val, ent[i][j], base)
                if sign < 0:
                    term = poly_neg(term)
                key = mask | bit
                if key in new:
                    new[key] = poly_add(new[key], term, base)
                else:
                    new[key] = term
        states = new
    out = states[(1 << n) - 1]
    while len(out) < n + 1:
        out.append(zero)
    return out


def poly_shift_basis(coeffs, base):
    """Rewrite sum c_i T^i as coefficients in powers of (T - 1)."""
    # substitute T = S + 1 and expand
    out = [base.zero()] * len(coeffs)
    for i, c in enumerate(coeffs):
        if c.is_zero():
            continue
        binom = 1
        for k in range(i + 1):
            out[k] = out[k] + c * binom
            binom = binom * (i - k) // (k + 1)
    return out
