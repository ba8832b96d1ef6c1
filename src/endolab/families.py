"""Explicit one-parameter families of (twisted-)conjugacy-class representatives.

Each family element is the matrix of multiplication by y = (1+phi)/(1-phi) on
an explicit basis of the Kummer field F[phi_u] (phi_u^{2n} = pi*u), possibly
glued with the 2-dimensional piece F[sqrt(pi*u~)] and conjugated into the
standard form by a fixed base-change matrix Q.  ``FAMILY_VARIANTS`` lists
the families of each group kind, and ``family_phi`` the phi coset each lies
on.  Weyl-discriminant
valuations are available both as closed values and through the eigenvalue
route when the needed root of unity lies in Q_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidU, RootOfUnityUnavailable, UnsupportedDegree
from .groups import GroupId, GroupKind, GroupMatrix, group_identity, phi_element
from .linalg import mat_id, mat_inv, mat_mul
from .padic import TowerSpec, _cap_abs, sqrt_unit
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


def base_field(p: int) -> TowerSpec:
    return get_tower(p, 1, 1)


def family_tower(p: int, n: int, u: int) -> TowerSpec:
    """F[phi_u] with phi_u^{2n} = pi*u."""
    return get_tower(p, 2 * n, u % p)


def y_element(tower: TowerSpec):
    one = tower.one()
    phi = tower.phi()
    return (one + phi) / (one - phi)


def _coordinates(base: TowerSpec, tower: TowerSpec, z, exponents):
    """Coordinates of z in the basis {phi^e : e in exponents} over the base."""
    e = tower.e
    by_class = {}
    for pos, b in enumerate(exponents):
        by_class[b % e] = (pos, b)
    coords = [base.zero() for _ in exponents]
    if z.is_zero():
        return coords
    pu = base.from_int(tower.p) * base.from_int(tower.u0)
    for i, c in enumerate(z.unit):
        if i >= z.rprec:
            break
        exp = z.shift + i
        pos, b = by_class[exp % e]
        m = (exp - b) // e
        digits = max(1, (z.rprec - i) // e)
        cval = base.from_int(c) * pu ** m
        coords[pos] = coords[pos] + _cap_abs(cval, m + digits)
    return coords


def mult_matrix(base: TowerSpec, tower: TowerSpec, elt, exponents):
    cols = []
    for b in exponents:
        z = elt * tower.phi(b)
        cols.append(_coordinates(base, tower, z, exponents))
    return [list(row) for row in zip(*cols)]


def so_ram_v(field, n: int, u, nu: int, sign: int = 1):
    """The residue unit v with v^2 * (-1)^(n-1) * u = eps^nu."""
    target = field.coerce(field.eps.a ** nu) / (field.coerce(-1) ** (n - 1) * field.coerce(u))
    root = field.sqrt(target)
    return root if sign > 0 else -root


def nu_of_u(field, n: int, u) -> int:
    """0 when (-1)^(n-1)u is a square, 1 otherwise."""
    return 0 if (field.coerce(-1) ** (n - 1) * field.coerce(u)).is_square() else 1


@dataclass
class WaldsFamilyData:
    """Parametrizing data shared by the matrix families at a given unit u."""

    p: int
    n: int
    u: int
    tower: TowerSpec  # F[phi_u]

    def y(self):
        return y_element(self.tower)

    def x_gl(self):
        t = self.tower
        return (t.one() + t.phi()) / (t.phi() * t.from_int(2 * self.n) * t.pi() * t.from_int(self.u))

    def c_sp(self):
        t = self.tower
        return -t.phi() / (t.from_int(2 * self.n) * t.pi() * t.from_int(self.u))

    def c_plus(self, t_invariant: int):
        t = self.tower
        sign = (-1) ** (self.n + 1) if t_invariant == 0 else (-1) ** self.n
        return t.from_int(sign) / (t.from_int(2 * self.n) * t.pi() * t.from_int(self.u))


def walds_family(p: int, n: int, u: int) -> WaldsFamilyData:
    return WaldsFamilyData(p, n, u, family_tower(p, n, u))


# family matrices --------------------------------------------------------------


def family_matrix(
    group: GroupId, p: int, u: int, variant: str = "plus", v_sign: int = 1
) -> GroupMatrix:
    if variant not in FAMILY_VARIANTS.get(group.kind, ()):
        raise InvalidU(f"no {variant} family for {group.kind.value}")
    k = make_field(p)
    if k.coerce(u).is_zero():
        raise InvalidU("the family parameter must be a unit")
    base = base_field(p)
    n = group.n
    if group.kind is GroupKind.SP:
        tower = family_tower(p, n, u)
        m = mult_matrix(base, tower, y_element(tower), list(range(2 * n, 0, -1)))
        g = GroupMatrix(group, base, m)
        return g if variant == "plus" else g.neg()
    if group.kind is GroupKind.TWISTED_GL:
        phi = phi_element(group, base, u)
        one = group_identity(group, base)
        g = GroupMatrix(group, base, [
            [one.entries[i][j] + phi.entries[i][j] for j in range(2 * n)]
            for i in range(2 * n)
        ])
        return g if variant == "plus" else phi * g
    if group.kind is GroupKind.SO_RAM:
        nu = nu_of_u(k, n, u)
        if nu != group.nu_mu:
            raise InvalidU(
                f"u={u} matches the nu={nu} form, not nu={group.nu_mu}"
            )
        v = so_ram_v(k, n, u, nu, v_sign)
        target = base.from_int(k.eps.a**nu) / base.from_int((-1) ** (n - 1) * u)
        v_exact = sqrt_unit(target, prefer=v)
        tower = family_tower(p, n, u)
        exps = list(range(2 * n - 1, n - 1, -1)) + [2 * n] + list(range(n - 1, 0, -1))
        m = mult_matrix(base, tower, y_element(tower), exps)
        q = [base.one()] * n + [v_exact.inv()] + [
            base.from_int((-1) ** (i + 1)) for i in range(n - 1)
        ]
        g = [
            [q[i] * m[i][j] * q[j].inv() for j in range(2 * n)] for i in range(2 * n)
        ]
        gm = GroupMatrix(group, base, g)
        return gm if variant == "plus" else gm.neg()
    # the split and unramified even orthogonal groups
    return _so_even_family(group, p, u, variant)


def _u_tilde(group: GroupId, p: int, u: int) -> int:
    """Exact integer u~ gluing the 2-dimensional factor (sign matters)."""
    k = make_field(p)
    n = group.n
    if group.kind is GroupKind.SO_SPL:
        return ((-1) ** (n + 1)) * u
    return ((-1) ** (n + 1)) * u * k.eps.a


def _so_even_family(group, p, u, variant):
    base = base_field(p)
    n = group.n
    tower = family_tower(p, n, u)
    ut = _u_tilde(group, p, u)
    tower2 = get_tower(p, 2, ut)
    mplus = mult_matrix(base, tower, y_element(tower), list(range(2 * n, 0, -1)))
    mminus = mult_matrix(base, tower2, y_element(tower2), [2, 1])
    if variant == "phi_coset":
        mminus = [[-x for x in row] for row in mminus]
    # the block-diagonal matrix diag(mplus, mminus)
    block = [row + [base.zero(), base.zero()] for row in mplus]
    block += [[base.zero() for _ in range(2 * n)] + row for row in mminus]
    q = _q_matrix(group, base, u)
    g = mat_mul(mat_inv(q), mat_mul(block, q))
    gm = GroupMatrix(group, base, g)
    if variant == "minus":
        return gm.neg()
    return gm


def _q_matrix(group, base, u):
    n = group.n
    N = 2 * n + 2
    rows = [[base.zero() for _ in range(N)] for _ in range(N)]
    inv2pu = (base.from_int(2 * u) * base.pi()).inv()
    half = base.from_int(2).inv()
    if group.kind is GroupKind.SO_SPL:
        rows[0][0] = base.from_int(-1)
        rows[0][N - 1] = base.from_int((-1) ** n) * inv2pu
        for i in range(1, n):
            rows[i][i] = base.one()
        rows[n][n] = -half
        rows[n][n + 1] = base.one()
        for i in range(n + 1, 2 * n):
            rows[i][i + 1] = base.from_int((-1) ** (i - n - 1))
        rows[2 * n][0] = base.from_int(-1)
        rows[2 * n][N - 1] = base.from_int((-1) ** (n + 1)) * inv2pu
        rows[2 * n + 1][n] = half
        rows[2 * n + 1][n + 1] = base.one()
        return rows
    # unramified case
    rows[0][0] = base.one()
    rows[0][N - 1] = base.from_int((-1) ** n) * inv2pu
    for i in range(1, n + 1):
        rows[i][i] = base.one()
    for i in range(n + 1, 2 * n):
        rows[i][i + 1] = base.from_int((-1) ** (i - n))
    rows[2 * n][n + 1] = base.one()
    rows[2 * n + 1][0] = base.from_int((-1) ** (n + 1) * u) * base.pi()
    rows[2 * n + 1][N - 1] = half
    return rows


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
    base = base_field(p)
    N = 2 * n + 1
    group = GroupId(GroupKind.GL, N)
    half_u = base.from_int(u) * base.from_int(2).inv() * base.pi()
    rows = mat_id(base, N)
    for i in range(N - 1):
        rows[i][i + 1] = base.one()
    rows[N - 2][0] = half_u
    rows[N - 1][1] = half_u
    return GroupMatrix(group, base, rows)


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


def weyl_disc_val(group: GroupId, p: int, u: int, variant: str = "plus", direct: bool = False):
    """-log_q of the (twisted) Weyl discriminant of the family element.

    The closed value comes from the table; with ``direct`` the eigenvalues
    (1 + phi z)/(1 - phi z) over the 2n-th roots of unity z are combined root
    by root, which needs p = 1 mod 2n.
    """
    n = group.n
    closed = DISC_TABLE[(group.kind, variant)](n)
    if not direct:
        return closed
    tower = family_tower(p, n, u)
    if (p - 1) % (2 * n) != 0:
        raise RootOfUnityUnavailable(f"need p = 1 mod {2*n}")
    zeta = tower.zeta(2 * n)
    one = tower.one()
    phi = tower.phi()
    eig = [
        (one + phi * zeta**j) / (one - phi * zeta**j) for j in range(1, 2 * n + 1)
    ]
    total = Fraction(0)
    if group.kind is GroupKind.SP:
        # roots {e_i - e_j, e_i + e_j (i<j), 2 e_i} on eigenvalues t_1..t_n
        t = eig[:n]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                total += (t[i] / t[j] - one).valuation()
            total += (t[i] ** 2 - one).valuation() + (t[i] ** -2 - one).valuation()
        for i in range(n):
            for j in range(i + 1, n):
                total += (t[i] * t[j] - one).valuation()
                total += ((t[i] * t[j]).inv() - one).valuation()
    elif group.kind is GroupKind.TWISTED_GL:
        # order the eigenvalues so positions i and 2n+1-i pair z with -z
        order = list(range(1, n + 1)) + list(range(2 * n, n, -1))
        if variant == "plus":
            s = [one + phi * zeta**j for j in order]
        else:
            s = [phi * zeta**j * (one + phi * zeta**j) for j in order]
        for i in range(2 * n):
            for j in range(2 * n):
                if i + j == 2 * n - 1:  # 0-based i+j = 2n+1 in 1-based
                    total += (s[i] / s[j] - one).valuation()
                elif i != j and i + j > 2 * n - 1:
                    total += (
                        one - (s[i] / s[j]) * (s[2 * n - 1 - j] / s[2 * n - 1 - i])
                    ).valuation()
    elif group.kind in (GroupKind.SO_RAM, GroupKind.SO_SPL, GroupKind.SO_UR):
        # roots {+-e_i +- e_j (i<j)} on eigenvalues t_1..t_n
        t = eig[:n]
        for i in range(n):
            for j in range(i + 1, n):
                total += (t[i] / t[j] - one).valuation()
                total += (t[j] / t[i] - one).valuation()
                total += (t[i] * t[j] - one).valuation()
                total += ((t[i] * t[j]).inv() - one).valuation()
        if group.kind is not GroupKind.SO_RAM:
            ut = _u_tilde(group, p, u)
            # trace of the 2-dimensional eigenvalue pair y, y^{-1}
            w = tower.pi() * tower.from_int(ut)
            s_tr = tower.from_int(2) * (one + w) / (one - w)
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
