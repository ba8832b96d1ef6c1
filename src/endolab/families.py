"""Explicit one-parameter families of (twisted-)conjugacy-class representatives.

Each family element is the matrix of multiplication by y = (1+phi)/(1-phi) on
an explicit basis of the Kummer field F[phi_u] (phi_u^{2n} = pi*u), possibly
glued with the 2-dimensional piece F[sqrt(pi*u~)] and conjugated into the
standard form by a fixed base-change matrix Q.  The tower arithmetic stays in
``LocalElem``; ``mult_matrix`` turns the coordinates into the ints of a
``GroupMatrix`` once, and everything after that is int matrix arithmetic.
``FAMILY_VARIANTS`` lists the families of each group kind, and
``family_phi`` the phi coset each lies on.  Weyl-discriminant valuations are
available both as closed values and through the eigenvalue route when the
needed root of unity lies in Q_p.

Each tower datum is computed once per value: y, the eigenvalues, their
root-pair valuations (once per (p, n, u) for every Sp and SO discriminant),
the ``walds_family`` constants, the inverses the transfer and discriminant
routes multiply by in place of dividing (of d = 2n*pi*u, y, 1 - phi and
(1 - phi)^(2n-1) (1 + phi) in ``walds_family``, of 1 - w in ``so_plane``),
the base change Q with its inverse and the family matrices are cached under
keys of ints, strings and ``GroupId``s, on the tower ``get_tower`` returns
for the same ints.  Caches hold tower and matrix data, never a value read
from a tabulated constant (``DISC_TABLE`` here, the transfer tables of
``endoscopy``), so perturbing a table reaches every later call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidU, UnsupportedDegree
from .groups import EXACT_PREC, GroupId, GroupKind, GroupMatrix, phi_element
from .padic import LocalElem, TowerSpec
from .residue import make_field

FAMILY_PREC = 8

# family variants per group kind, in report order
FAMILY_VARIANTS = {
    GroupKind.SP: ("plus", "minus"),
    GroupKind.SO_RAM: ("plus", "minus"),
    GroupKind.SO_SPL: ("plus", "minus", "phi_coset"),
    GroupKind.SO_UR: ("plus", "minus", "phi_coset"),
    GroupKind.TWISTED_GL: ("plus", "minus"),
}


@lru_cache(maxsize=None)
def get_tower(p: int, e: int, u0: int, prec: int = FAMILY_PREC) -> TowerSpec:
    return TowerSpec(p, e, u0, prec)


def family_tower(p: int, n: int, u: int) -> TowerSpec:
    """F[phi_u] with phi_u^{2n} = pi*u."""
    return get_tower(p, 2 * n, u % p)


@lru_cache(maxsize=None)
def y_element(p: int, e: int, u0: int) -> LocalElem:
    """y = (1 + phi)/(1 - phi) in ``get_tower(p, e, u0)``."""
    tower = get_tower(p, e, u0)
    one = tower.one()
    phi = tower.phi()
    return (one + phi) / (one - phi)


@lru_cache(maxsize=None)
def family_eigenvalues(p: int, n: int, u: int) -> tuple:
    """The eigenvalues (1 + phi z)/(1 - phi z) of the family element y_u, z
    running over zeta^j for j = 1..2n (needs p = 1 mod 2n)."""
    tower = family_tower(p, n, u)
    zeta = tower.zeta(2 * n)
    one = tower.one()
    phi = tower.phi()
    return tuple((one + phi * zeta**j) / (one - phi * zeta**j) for j in range(1, 2 * n + 1))


def mult_matrix(elt: LocalElem, exponents):
    """(rows, prec): the int matrix of multiplication by the unit ``elt`` on
    the basis {phi^b : b in exponents} of its tower over Q_p, one exponent in
    1..e per class mod e, known mod p^prec.  The unit part sum c_i phi^i of
    phi^shift * sum c_i phi^i is known mod phi^rprec, so c_i is known mod
    p^ceil((rprec - i) / e)."""
    tower = elt.tower
    e, p = tower.e, tower.p
    pos_of = {b % e: pos for pos, b in enumerate(exponents)}
    pu = p * tower.u0
    cols, precs = [], []
    for b in exponents:
        z = elt * tower.phi(b)
        col = [0] * len(exponents)
        for i, c in enumerate(z.unit[: z.rprec]):
            exp = z.shift + i
            pos = pos_of[exp % e]
            m = (exp - exponents[pos]) // e
            col[pos] += c * pu**m
            precs.append(m - (i - z.rprec) // e)
        cols.append(col)
    return [list(row) for row in zip(*cols)], min(precs)


def so_ram_v(field, n: int, u, nu: int, sign: int = 1):
    """The residue unit v with v^2 * (-1)^(n-1) * u = eps^nu."""
    target = field.coerce(field.eps.a ** nu) / (field.coerce(-1) ** (n - 1) * field.coerce(u))
    root = field.sqrt(target)
    return root if sign > 0 else -root


def nu_of_u(field, n: int, u) -> int:
    """0 when (-1)^(n-1)u is a square, 1 otherwise."""
    return 0 if (field.coerce(-1) ** (n - 1) * field.coerce(u)).is_square() else 1


@dataclass(frozen=True)
class WaldsFamilyData:
    """Parametrizing data shared by the matrix families at a given unit u: y,
    the constants of the transfer-factor formulas and the inverses those
    formulas multiply by, in F[phi_u]."""

    p: int
    n: int
    u: int
    tower: TowerSpec  # F[phi_u]
    y: LocalElem
    x_gl: LocalElem
    c_sp: LocalElem
    c_plus: tuple  # by the t invariant, 0 then 1
    y_inv: LocalElem
    one_minus_phi_inv: LocalElem
    pol_den_inv: LocalElem  # of (1 - phi)^(2n-1) (1 + phi)


@lru_cache(maxsize=None)
def walds_family(p: int, n: int, u: int) -> WaldsFamilyData:
    t = family_tower(p, n, u)
    one, phi = t.one(), t.phi()
    # d = 2n * pi * u, inverted once for x_gl, c_sp and c_plus
    d_inv = (t.from_int(2 * n) * t.pi() * t.from_int(u)).inv()
    y = y_element(p, 2 * n, u % p)
    x_gl = (one + phi) * t.phi(-1) * d_inv
    c_plus = tuple(t.from_int(sign) * d_inv for sign in ((-1) ** (n + 1), (-1) ** n))
    pol_den = (one - phi) ** (2 * n - 1) * (one + phi)
    return WaldsFamilyData(
        p, n, u, t, y, x_gl, -phi * d_inv, c_plus, y.inv(), (one - phi).inv(), pol_den.inv()
    )


@lru_cache(maxsize=None)
def so_plane(kind: GroupKind, p: int, n: int, u: int) -> tuple:
    """(w, (1 - w)^-1) in F[phi_u] for w = pi * u~, u~ gluing the
    2-dimensional factor of the even-orthogonal kind."""
    t = family_tower(p, n, u)
    w = t.pi() * t.from_int(_u_tilde(GroupId(kind, n), p, u))
    return w, (t.one() - w).inv()


# family matrices --------------------------------------------------------------


@lru_cache(maxsize=None)
def family_matrix(
    group: GroupId, p: int, u: int, variant: str = "plus", v_sign: int = 1
) -> GroupMatrix:
    if variant not in FAMILY_VARIANTS.get(group.kind, ()):
        raise InvalidU(f"no {variant} family for {group.kind.value}")
    k = make_field(p)
    if k.coerce(u).is_zero():
        raise InvalidU("the family parameter must be a unit")
    n = group.n
    if group.kind is GroupKind.SP:
        m, prec = mult_matrix(y_element(p, 2 * n, u % p), list(range(2 * n, 0, -1)))
        g = GroupMatrix(group, p, m, 0, prec)
        return g if variant == "plus" else g.neg()
    if group.kind is GroupKind.TWISTED_GL:
        phi = phi_element(group, p, u)
        g = GroupMatrix(group, p, [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(phi.a)])
        return g if variant == "plus" else phi * g
    if group.kind is GroupKind.SO_RAM:
        nu = nu_of_u(k, n, u)
        if nu != group.nu_mu:
            raise InvalidU(
                f"u={u} matches the nu={nu} form, not nu={group.nu_mu}"
            )
        exps = list(range(2 * n - 1, n - 1, -1)) + [2 * n] + list(range(n - 1, 0, -1))
        m, prec = mult_matrix(y_element(p, 2 * n, u % p), exps)
        mod = p**prec
        target = k.eps.a**nu * pow((-1) ** (n - 1) * u, -1, mod)
        v_exact = _sqrt_unit(target, so_ram_v(k, n, u, nu, v_sign).a, p, prec)
        q = [1] * n + [pow(v_exact, -1, mod)] + [(-1) ** (i + 1) for i in range(n - 1)]
        qinv = [pow(x, -1, mod) for x in q]
        g = [[qi * x * qj for x, qj in zip(row, qinv)] for qi, row in zip(q, m)]
        gm = GroupMatrix(group, p, g, 0, prec)
        return gm if variant == "plus" else gm.neg()
    # the split and unramified even orthogonal groups
    return _so_even_family(group, p, u, variant)


def _sqrt_unit(x: int, root: int, p: int, prec: int) -> int:
    """The square root mod p^prec of the unit x that is root mod p (Newton)."""
    mod = p**prec
    half = pow(2, -1, mod)
    y = root
    for _ in range(prec.bit_length() + 1):
        y = (y + x * pow(y, -1, mod)) * half % mod
    return y


def _u_tilde(group: GroupId, p: int, u: int) -> int:
    """Exact integer u~ gluing the 2-dimensional factor (sign matters)."""
    k = make_field(p)
    n = group.n
    if group.kind is GroupKind.SO_SPL:
        return ((-1) ** (n + 1)) * u
    return ((-1) ** (n + 1)) * u * k.eps.a


def _so_even_family(group, p, u, variant):
    n = group.n
    mplus, prec_plus = mult_matrix(y_element(p, 2 * n, u % p), list(range(2 * n, 0, -1)))
    mminus, prec_minus = mult_matrix(y_element(p, 2, _u_tilde(group, p, u)), [2, 1])
    if variant == "phi_coset":
        mminus = [[-x for x in row] for row in mminus]
    # the block-diagonal matrix diag(mplus, mminus)
    block = [row + [0, 0] for row in mplus] + [[0] * (2 * n) + row for row in mminus]
    q, qinv = _q_pair(group, p, u)
    gm = qinv * (GroupMatrix(group, p, block, 0, min(prec_plus, prec_minus)) * q)
    if variant == "minus":
        return gm.neg()
    return gm


@lru_cache(maxsize=None)
def _q_pair(group, p, u):
    """(Q, Q^-1) for the base change Q, whose corner entries +-1/(2*pi*u) put
    it at scale 1: the rows below are those of p * Q."""
    n = group.n
    N = 2 * n + 2
    rows = [[0] * N for _ in range(N)]
    mod = p ** (EXACT_PREC + 1)
    inv2u = pow(2 * u, -1, mod)
    half_p = p * pow(2, -1, mod)
    if group.kind is GroupKind.SO_SPL:
        rows[0][0] = -p
        rows[0][N - 1] = (-1) ** n * inv2u
        for i in range(1, n):
            rows[i][i] = p
        rows[n][n] = -half_p
        rows[n][n + 1] = p
        for i in range(n + 1, 2 * n):
            rows[i][i + 1] = (-1) ** (i - n - 1) * p
        rows[2 * n][0] = -p
        rows[2 * n][N - 1] = (-1) ** (n + 1) * inv2u
        rows[2 * n + 1][n] = half_p
        rows[2 * n + 1][n + 1] = p
    else:  # unramified case
        rows[0][0] = p
        rows[0][N - 1] = (-1) ** n * inv2u
        for i in range(1, n + 1):
            rows[i][i] = p
        for i in range(n + 1, 2 * n):
            rows[i][i + 1] = (-1) ** (i - n) * p
        rows[2 * n][n + 1] = p
        rows[2 * n + 1][0] = (-1) ** (n + 1) * u * p * p
        rows[2 * n + 1][N - 1] = half_p
    q = GroupMatrix(group, p, rows, 1)
    return q, q.inv()


def family_phi(group: GroupId, p: int, u: int, variant: str) -> tuple:
    """The ``phi_element`` parameters, as residue ints, of the phi coset the
    ``variant`` family lies on, and () off the phi cosets: the twisted linear
    minus family is phi_u * g_u, the even-orthogonal phi_coset family is
    g_u * phi_{alpha,beta} up to I+."""
    if group.kind is GroupKind.TWISTED_GL and variant == "minus":
        return (u % p,)
    if variant != "phi_coset":
        return ()
    beta = 2 * u * (-1) ** group.n % p
    if group.kind is GroupKind.SO_SPL:
        return (pow(-2, -1, p), -beta % p)
    return (beta,)


def gl_odd_family(p: int, n: int, u: int) -> GroupMatrix:
    """1 + phi'_u in the odd linear group, phi' carrying pi*u/2 in two corners."""
    N = 2 * n + 1
    half_u = u * pow(2, -1, p**EXACT_PREC) * p
    rows = [[int(i == j or j == i + 1) for j in range(N)] for i in range(N)]
    rows[N - 2][0] = half_u
    rows[N - 1][1] = half_u
    return GroupMatrix(GroupId(GroupKind.GL, N), p, rows)


# Weyl discriminant valuations --------------------------------------------------


DISC_TABLE = {
    (GroupKind.SP, "plus"): lambda n: Fraction(n, 2),
    (GroupKind.SP, "minus"): lambda n: Fraction(n, 2),
    (GroupKind.TWISTED_GL, "plus"): lambda n: Fraction(n, 2),
    (GroupKind.TWISTED_GL, "minus"): lambda n: Fraction(n - 1, 2),
    (GroupKind.SO_RAM, "plus"): lambda n: Fraction(n - 1, 2),
    (GroupKind.SO_RAM, "minus"): lambda n: Fraction(n - 1, 2),
    (GroupKind.SO_SPL, "plus"): lambda n: Fraction(n + 1, 2),
    (GroupKind.SO_SPL, "minus"): lambda n: Fraction(n + 1, 2),
    (GroupKind.SO_SPL, "phi_coset"): lambda n: Fraction(n - 1, 2),
    (GroupKind.SO_UR, "plus"): lambda n: Fraction(n + 1, 2),
    (GroupKind.SO_UR, "minus"): lambda n: Fraction(n + 1, 2),
    (GroupKind.SO_UR, "phi_coset"): lambda n: Fraction(n - 1, 2),
}


@lru_cache(maxsize=None)
def _root_pair_val(p: int, n: int, u: int) -> Fraction:
    """The valuations of t_i/t_j - 1, t_j/t_i - 1, t_i t_j - 1 and
    (t_i t_j)^-1 - 1, the roots +-e_i +- e_j (i < j), summed over the family
    eigenvalues t_1..t_n."""
    t = family_eigenvalues(p, n, u)[:n]
    t_inv = [x.inv() for x in t]
    one = family_tower(p, n, u).one()
    total = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            total += (t[i] * t_inv[j] - one).valuation()
            total += (t[j] * t_inv[i] - one).valuation()
            total += (t[i] * t[j] - one).valuation()
            total += (t_inv[i] * t_inv[j] - one).valuation()
    return total


def weyl_disc_val(group: GroupId, p: int, u: int, variant: str = "plus"):
    """-log_q of the (twisted) Weyl discriminant of the family element.

    The eigenvalues (1 + phi z)/(1 - phi z) over the 2n-th roots of unity z
    are combined root by root, which needs p = 1 mod 2n, and the result is
    compared with the closed value of the table; a mismatch raises InvalidU.
    """
    n = group.n
    closed = DISC_TABLE[(group.kind, variant)](n)
    eig = family_eigenvalues(p, n, u)
    tower = family_tower(p, n, u)
    one = tower.one()
    phi = tower.phi()
    total = Fraction(0)
    if group.kind is GroupKind.SP:
        # the roots +-e_i +- e_j (i<j) and the long roots 2 e_i
        total += _root_pair_val(p, n, u)
        for x in eig[:n]:
            total += (x**2 - one).valuation() + (x**-2 - one).valuation()
    elif group.kind is GroupKind.TWISTED_GL:
        # order the eigenvalues so positions i and 2n+1-i pair z with -z
        order = list(range(1, n + 1)) + list(range(2 * n, n, -1))
        zeta = tower.zeta(2 * n)
        if variant == "plus":
            s = [one + phi * zeta**j for j in order]
        else:
            s = [phi * zeta**j * (one + phi * zeta**j) for j in order]
        s_inv = [x.inv() for x in s]
        for i in range(2 * n):
            for j in range(2 * n):
                if i + j == 2 * n - 1:  # 0-based i+j = 2n+1 in 1-based
                    total += (s[i] * s_inv[j] - one).valuation()
                elif i != j and i + j > 2 * n - 1:
                    total += (
                        one - (s[i] * s_inv[j]) * (s[2 * n - 1 - j] * s_inv[2 * n - 1 - i])
                    ).valuation()
    elif group.kind in (GroupKind.SO_RAM, GroupKind.SO_SPL, GroupKind.SO_UR):
        total += _root_pair_val(p, n, u)
        if group.kind is not GroupKind.SO_RAM:
            # trace of the 2-dimensional eigenvalue pair y, y^{-1}
            w, one_minus_w_inv = so_plane(group.kind, p, n, u)
            s_tr = tower.from_int(2) * (one + w) * one_minus_w_inv
            if variant == "phi_coset":
                s_tr = -s_tr
            # cross pairs with the last eigenvalue pair, roots e_i -+ e_{n+1}:
            # (x/y - 1)(x*y - 1) = (x - y)(x - 1/y)
            for x in eig:
                q1 = x * x - s_tr * x + one  # (x - y)(x - 1/y)
                total += q1.valuation() - x.valuation()
    else:
        raise UnsupportedDegree(f"no discriminant for {group.kind}")
    val = total / 2
    if val != closed:
        raise InvalidU(
            f"eigenvalue route gave {val}, closed table {closed} ({group}, {variant})"
        )
    return val
