"""Dense int-matrix kernels for the group matrices (sizes are at most ~8x8).

A matrix is a tuple of int rows standing for a p-adic integral matrix known
mod p^prec.  Products and characteristic polynomials are division-free, so
they are known to the same precision; ``mat_inv`` inverts the int
representative exactly and certifies the digits that every lift shares.
"""

from __future__ import annotations

import operator

from .errors import PrecisionExhausted


def mat_mul(a, b, mod):
    """a * b with its entries reduced mod ``mod``."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) % mod for col in cols) for row in a)


def mat_transpose(a):
    return tuple(zip(*a))


def val_p(x: int, p: int) -> int:
    """The p-adic valuation of the nonzero int x."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def mat_inv(a, p: int, prec: int):
    """(t, b, prec'): a^-1 = p^-t * b with b an int matrix with a unit entry,
    known mod p^prec' = p^(prec - t).

    The representative is inverted exactly (fraction-free Gauss-Jordan on
    [a | 1], every division exact), so no pivot choice changes the result.
    Any lift a + p^prec * e of a has (a + p^prec e)^-1 = a^-1 mod
    p^(prec - 2t), as p^prec e a^-1 has valuation >= prec - t >= 1; hence
    b's digits below p^(prec - t) are those of every lift."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            r = next((i for i in range(k + 1, n) if m[i][k]), None)
            if r is None:
                raise PrecisionExhausted("matrix not invertible within precision")
            m[k], m[r] = m[r], m[k]
        piv, rk = m[k][k], m[k]
        for i in range(n):
            c = m[i][k]
            if i != k:
                m[i] = [(piv * x - c * y) // prev for x, y in zip(m[i], rk)]
        prev = piv
    # now m = [det | det * a^-1] up to a common sign
    d = val_p(prev, p)
    r = min(val_p(x, p) for row in m for x in row[n:] if x)
    t = d - r
    if t >= prec:
        raise PrecisionExhausted("matrix not invertible within precision")
    mod = p ** (prec - t)
    scale = pow(prev // p**d, -1, mod)
    return t, tuple(tuple(x // p**r * scale % mod for x in row[n:]) for row in m), prec - t


def charpoly(a, mod):
    """Coefficients of det(T - a) mod ``mod``, lowest degree first: the
    division-free expansion along the rows, one state per set of columns used."""
    n = len(a)
    states = {0: [1]}
    for i in range(n):
        new: dict = {}
        for mask, val in states.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                # val * (T*[i == j] - a[i][j]), signed by the columns passed over
                sign = -1 if bin(mask >> (j + 1)).count("1") % 2 else 1
                term = [-sign * a[i][j] * x for x in val] + [0]
                if i == j:
                    for k, x in enumerate(val):
                        term[k + 1] += sign * x
                acc = new.get(mask | bit)
                new[mask | bit] = term if acc is None else [x + y for x, y in zip(acc, term)]
        states = {key: [x % mod for x in val] for key, val in new.items()}
    return states[(1 << n) - 1]


def poly_shift_basis(coeffs, mod):
    """Rewrite sum c_i T^i as coefficients in powers of (T - 1), mod ``mod``."""
    # substitute T = S + 1 and expand
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        binom = 1
        for k in range(i + 1):
            out[k] += c * binom
            binom = binom * (i - k) // (k + 1)
    return [x % mod for x in out]
