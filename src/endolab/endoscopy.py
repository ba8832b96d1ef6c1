"""Transfer factors on the explicit element families and the endoscopic
character identities that pin down packet parameters.

Transfer factors stay symbolic (a sign, a residue unit under the quadratic
character, a power of q^(1/2), and a power of the quadratic Gauss sum) so the
cancellations in products are exact; they are only sent to complex numbers at
comparison time.

The sign-character factors that depend only on (p, n, u) and the family
(``pol_products``, ``sign_terms``, ``so_factors``), and the phi-coset family
descriptors (``coset_descriptor``), are computed once per value; as in
``families``, no cache holds a value read from a table (``ETA_CLOSED``,
``DELTA_IV_EXPECTED``, ``epsilon_factor``), so a perturbed table reaches every
later call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import characters
from .errors import IdentityFailed, IncompatibleParams, InvalidParams, InvalidU, UnknownPair
from .families import (
    DISC_TABLE,
    FAMILY_VARIANTS,
    WaldsFamilyData,
    _u_tilde,
    family_eigenvalues,
    family_matrix,
    family_tower,
    gl_odd_family,
    nu_of_u,
    walds_family,
)
from .groups import (
    GroupId,
    GroupKind,
    twisted_norm_charpoly_check,
)
from .residue import make_field
from .sums import (
    gauss_sum,
    gl_theta_spec,
    kl_pm,
    kloosterman_eval,
    so_split_spec,
    so_unramified_spec,
    sp_spec,
)
from .padic import tame_hilbert

TOL = 1e-6


# ---------------------------------------------------------------------------
# symbolic transfer values


@dataclass(frozen=True)
class TransferValue:
    """sign * w0(unit) * q^(halfq/2) * G(w0, psi)^gauss."""

    sign: int = 1
    unit: int = 1
    halfq: int = 0
    gauss: int = 0

    def __mul__(self, other: "TransferValue") -> "TransferValue":
        return TransferValue(
            self.sign * other.sign,
            self.unit * other.unit,
            self.halfq + other.halfq,
            self.gauss + other.gauss,
        )

    def canonical(self, field):
        """(total sign, halfq, gauss in {0,1}) using G^2 = q*w0(-1)."""
        s = self.sign
        u = field.coerce(self.unit)
        if u.is_zero():
            raise InvalidU("transfer unit must be nonzero")
        s *= 1 if u.is_square() else -1
        g = self.gauss % 2
        m = (self.gauss - g) // 2
        h = self.halfq + 2 * m
        if m % 2 != 0 and not field.coerce(-1).is_square():
            s = -s
        return (s, h, g)

    def evaluate(self, field) -> complex:
        s, h, g = self.canonical(field)
        q = field.q
        G = gauss_sum(field.omega0(), field)
        return s * q ** (h / 2) * G**g

    def symbolic_eq(self, other: "TransferValue", field) -> bool:
        return self.canonical(field) == other.canonical(field)


# ---------------------------------------------------------------------------
# endoscopic pairs


class Pair(enum.Enum):
    GL_ODD_SP = "gl2n1_sp"       # twisted GL_{2n+1} with Sp_{2n}
    GL_SORAM = "gl2n_soram"      # twisted GL_{2n} with SO_{2n}^mu
    SP_SORAM = "sp_soram"        # Sp_{2n} with SO_{2n}^mu
    SOSPL_H = "sospl_h"          # SO_{2n+2} with SO_{2n}^mu x SO_2^mu
    SOUR_H = "sour_h"            # SO_{2n+2}^ur with SO_{2n}^mu x SO_2^mubar


# the kind of each pair's group G
PAIR_GROUP = {
    Pair.GL_ODD_SP: GroupKind.TWISTED_GL,
    Pair.GL_SORAM: GroupKind.TWISTED_GL,
    Pair.SP_SORAM: GroupKind.SP,
    Pair.SOSPL_H: GroupKind.SO_SPL,
    Pair.SOUR_H: GroupKind.SO_UR,
}


def pair_variants(pair: Pair) -> tuple:
    """The pair's family variants: those of its group G, except on the odd
    pair, whose one family is ``families.gl_odd_family``."""
    if pair is Pair.GL_ODD_SP:
        return ("plus",)
    return FAMILY_VARIANTS[PAIR_GROUP[pair]]


def epsilon_factor(pair: Pair) -> TransferValue:
    """Root-number ratio of the pair (tabulated)."""
    if pair is Pair.GL_ODD_SP:
        return TransferValue()
    if pair in (Pair.GL_SORAM, Pair.SP_SORAM):
        return TransferValue(halfq=1, gauss=-1)
    if pair is Pair.SOSPL_H:
        return TransferValue(unit=-1)
    if pair is Pair.SOUR_H:
        return TransferValue(sign=-1, unit=-1)
    raise UnknownPair(str(pair))


# ---------------------------------------------------------------------------
# the eta invariant (Whittaker normalization); tests/test_endoscopy.py checks
# it against the principal nilpotent recipe


ETA_CLOSED = {
    GroupKind.GL: lambda n: (-1) ** (n - 1),  # n is the matrix size here
    GroupKind.TWISTED_GL: lambda n: -1,
    GroupKind.SP: lambda n: -1,
    GroupKind.SO_SPL: lambda n: (-1) ** (n - 1) * 2,
    GroupKind.SO_UR: lambda n: (-1) ** (n - 1) * 4,
}


# ---------------------------------------------------------------------------
# polynomial products of the conjugacy parametrization


@lru_cache(maxsize=None)
def pol_products(p: int, n: int, u: int, sign: str = "+", direct: bool = False):
    """P'(+-y_u) * P(-1) for the rank-2n family, as a tower element.

    The closed forms are 2 phi^{2n-1} (2n) / ((1-phi)^{2n-1} (1+phi)) for the
    plus family and 2 phi^{-1} (2n) / ((1-phi)^{2n-1} (1+phi)) for the minus
    one; the direct route multiplies the root differences (needs the 2n-th
    roots of unity in Q_p).
    """
    if sign not in ("+", "-"):
        raise InvalidParams(f"sign must be + or -, not {sign!r}")
    data = walds_family(p, n, u)
    t = data.tower
    one = t.one()
    phi = t.phi()
    if not direct:
        return (
            t.from_int(2)
            * t.from_int(2 * n)
            * phi ** (2 * n - 1 if sign == "+" else -1)
            / ((one - phi) ** (2 * n - 1) * (one + phi))
        )
    y, roots = data.y, family_eigenvalues(p, n, u)
    if sign == "-":
        # the minus polynomial is P(-X) up to sign: y -> -y, roots r -> -r
        y, roots = -y, [-r for r in roots]
    dp = one
    for r in roots[:-1]:
        dp = dp * (y - r)
    pm1 = one
    for r in roots:
        pm1 = pm1 * (-one - r)
    return dp * pm1


@lru_cache(maxsize=None)
def sign_terms(p: int, n: int, u: int, minus: bool) -> tuple:
    """(-x^-1, y^(1-n), y^-n, 1 + y, 1/(y - 1)), the table-free factors of the
    sign-character arguments; the minus family takes y -> -y and, on the
    linear pair, x -> phi * x, which keeps x / tau(x) = -y."""
    data = walds_family(p, n, u)
    one = data.tower.one()
    y = -data.y if minus else data.y
    x = data.tower.phi() * data.x_gl if minus else data.x_gl
    return -x.inv(), y ** (1 - n), y ** (-n), one + y, (y - one).inv()


@lru_cache(maxsize=None)
def so_factors(kind: GroupKind, p: int, n: int, u: int, variant: str) -> tuple:
    """(dfac, cfac) of the even-orthogonal sign-character argument."""
    t = family_tower(p, n, u)
    one, phi, two = t.one(), t.phi(), t.from_int(2)
    w = t.pi() * t.from_int(_u_tilde(GroupId(kind, n), p, u))
    num = one - phi**2 * w if variant == "phi_coset" else phi**2 - w
    dfac = two**2 * num / ((one - phi) ** 2 * (one - w))
    cfac = two**2 / (one - w) if variant == "plus" else -(two**2) * w / (one - w)
    return dfac, cfac


def sgn_at(data: WaldsFamilyData, x) -> int:
    """The quadratic sign character of F[phi_u] over its index-2 subtower."""
    return tame_hilbert(x, data.tower.phi(2), sub=2)


def delta_iv_walds(
    pair: Pair, p: int, n: int, u: int, variant: str = "plus", direct: bool = False
) -> int:
    """The product of the first three factors at the family pair, through the
    explicit sign-character formula."""
    if variant not in pair_variants(pair):
        raise InvalidU(f"no variant {variant} for {pair}")
    if pair is Pair.GL_ODD_SP:
        return 1
    data = walds_family(p, n, u)
    # the minus family is the plus one at y -> -y: P'(-y)P(-1)
    minus = variant == "minus"
    neg_x_inv, y_1n, y_mn, one_plus_y, inv_y_minus_one = sign_terms(p, n, u, minus)
    prod = pol_products(p, n, u, "-" if minus else "+", direct)
    if pair is Pair.GL_SORAM:
        return sgn_at(data, neg_x_inv * prod * y_1n * one_plus_y)
    if pair is Pair.SP_SORAM:
        return sgn_at(data, data.c_sp * prod * y_1n)
    if pair in (Pair.SOSPL_H, Pair.SOUR_H):
        t_inv = 0 if pair is Pair.SOSPL_H else 1
        kind = PAIR_GROUP[pair]
        # the sign-character assembly needs the opposite sign from the eta
        # table on the even-orthogonal rows; the choice here is pinned by the
        # packet identities, which are verified independently
        eta_g = -ETA_CLOSED[kind](n)
        dfac, cfac = so_factors(kind, p, n, u, variant)
        arg = (
            data.tower.from_int(2 * eta_g)
            * data.c_plus[t_inv]
            * (prod * dfac * cfac)
            * y_mn
            * one_plus_y
            * inv_y_minus_one
        )
        return sgn_at(data, arg)
    raise UnknownPair(str(pair))


DELTA_IV_EXPECTED = {
    (Pair.GL_SORAM, "plus"): TransferValue(unit=-1),
    (Pair.GL_SORAM, "minus"): TransferValue(unit=-1),
    (Pair.SP_SORAM, "plus"): TransferValue(unit=-2),
    (Pair.SP_SORAM, "minus"): TransferValue(unit=2),
    (Pair.SOSPL_H, "plus"): TransferValue(unit=-2),
    (Pair.SOSPL_H, "minus"): TransferValue(unit=2),
    (Pair.SOSPL_H, "phi_coset"): TransferValue(unit=2),
    (Pair.SOUR_H, "plus"): TransferValue(),
    (Pair.SOUR_H, "minus"): TransferValue(sign=-1, unit=-1),
    (Pair.SOUR_H, "phi_coset"): TransferValue(sign=-1, unit=-1),
}


def delta4(pair: Pair, n: int, variant: str = "plus") -> TransferValue:
    """Weyl-discriminant ratio D_{G,theta}(delta)/D_H(gamma) as a q-power
    (1 on the odd pair; D_H has valuation (n-1)/2 on the others)."""
    if pair is Pair.GL_ODD_SP:
        return TransferValue()
    g_val = DISC_TABLE[(PAIR_GROUP[pair], variant)](n)
    h_val = Fraction(n - 1, 2)
    halfq = -2 * (g_val - h_val)
    if halfq.denominator != 1:
        raise IncompatibleParams(
            f"discriminant ratio q^{-(g_val - h_val)} is not a half-integral q-power"
        )
    return TransferValue(halfq=int(halfq))


def transfer_factor(pair: Pair, p: int, n: int, u: int, variant: str = "plus") -> TransferValue:
    """Delta = Delta^IV * Delta_IV * epsilon at the family pair."""
    if pair is Pair.GL_ODD_SP:
        return TransferValue()
    s = delta_iv_walds(pair, p, n, u, variant)
    return TransferValue(sign=s) * delta4(pair, n, variant) * epsilon_factor(pair)


TRANSFER_EXPECTED = {
    (Pair.GL_SORAM, "plus"): TransferValue(unit=-1, gauss=-1),
    (Pair.GL_SORAM, "minus"): TransferValue(unit=-1, halfq=1, gauss=-1),
    (Pair.SP_SORAM, "plus"): TransferValue(unit=-2, gauss=-1),
    (Pair.SP_SORAM, "minus"): TransferValue(unit=2, gauss=-1),
    (Pair.SOSPL_H, "plus"): TransferValue(unit=2, halfq=-2),
    (Pair.SOSPL_H, "minus"): TransferValue(unit=-2, halfq=-2),
    (Pair.SOSPL_H, "phi_coset"): TransferValue(unit=-2),
    (Pair.SOUR_H, "plus"): TransferValue(sign=-1, unit=-1, halfq=-2),
    (Pair.SOUR_H, "minus"): TransferValue(halfq=-2),
    (Pair.SOUR_H, "phi_coset"): TransferValue(),
}


def ecr_coefficient(pair: Pair, n: int, variant: str) -> TransferValue:
    """The weight (D_H^2/D_G^2) * Delta appearing in the character identity;
    equals Delta^IV * epsilon / Delta_IV, with Delta^IV taken from the
    verified closed table."""
    div = DELTA_IV_EXPECTED[(pair, variant)]
    d4 = delta4(pair, n, variant)
    return div * epsilon_factor(pair) * TransferValue(halfq=-d4.halfq)


# ---------------------------------------------------------------------------
# packet parameters


@dataclass(frozen=True)
class PacketSolution:
    xi_prime: int
    a_prime_sq: int
    nu_mu: int
    genericity_sign: int
    gl_b: int | None = None
    gl_zeta: complex | None = None


def ecr_ram_descent_verify(n: int, p: int, xi: int, a: int) -> PacketSolution:
    """The descent identity chain: for every unit u, the difference of the two
    symplectic characters at the family element matches the weighted ramified-
    orthogonal character sum, with genericity sign 1."""
    k = make_field(p)
    w0 = k.omega0()
    nu = nu_of_u(k, n, a)
    xi_prime = xi * (1 if k.coerce(-1).is_square() else -1)
    a_prime_sq = k.coerce(-1) ** (n - 1) * k.eps**nu * k.coerce(4 * a)
    a_prime = k.sqrt(a_prime_sq)
    spec_tw = sp_spec(k, n, twisted=True)
    coeff = ecr_coefficient(Pair.SP_SORAM, n, "plus").evaluate(k)
    coeff_minus = ecr_coefficient(Pair.SP_SORAM, n, "minus").evaluate(k)
    two_n = k.coerce(2) ** n
    for u in k.units():
        au = k.coerce(a) * u
        lhs = w0(k.coerce(2) * au) * kloosterman_eval(
            spec_tw, k.coerce(2) ** (2 * n) * au
        )
        if not au.is_square():
            if abs(lhs) > TOL:
                raise IdentityFailed(f"vanishing side fails at u={u}")
            continue
        v = k.sqrt(k.coerce(-1) ** (n - 1) * k.eps**nu * u.inv())
        rhs_kl = kl_pm(k, n, two_n * a_prime * v.inv())
        if abs(lhs - coeff * rhs_kl) > TOL:
            raise IdentityFailed(f"descent identity fails at u={u}")
        # central-sign variant at the negative family element
        lhs_minus = xi * lhs
        rhs_minus = xi_prime * coeff_minus * rhs_kl
        if abs(lhs_minus - rhs_minus) > TOL:
            raise IdentityFailed(f"central-sign identity fails at u={u}")
    return PacketSolution(xi_prime, a_prime_sq.a, nu, 1)


def ecr_gl_lift_verify(n: int, p: int, xi: int, a: int, tol: float = 1e-9):
    """The two lifting identities determining the linear-group data (b, zeta),
    with zeta^2 = w0(-1) checked to ``tol``."""
    k = make_field(p)
    w0 = k.omega0()
    q = k.q
    G = gauss_sum(w0, k)
    b = (4 * a) % p
    zeta = xi * q ** (-0.5) * w0(k.coerce(-1)) * G
    if abs(zeta**2 - w0(k.coerce(-1))) > tol:
        raise IdentityFailed("zeta^2 != w0(-1)")
    spec_gl = gl_theta_spec(k, n)
    spec_tw = sp_spec(k, n, twisted=True)
    w02 = w0(k.coerce(2))
    for u in k.units():
        # plain identity: w0(2) Theta^{GL}(g_u) = (Theta difference)(g_u^Sp)
        alpha = k.coerce(b) * u * k.coerce(2) ** (2 * (n - 1))
        lhs = w02 * w0(k.coerce(b) * u) * kloosterman_eval(spec_gl, alpha)
        rhs = w0(k.coerce(2 * a) * u) * kloosterman_eval(
            spec_tw, k.coerce(2) ** (2 * n) * k.coerce(a) * u
        )
        if abs(lhs - rhs) > TOL:
            raise IdentityFailed(f"plain lift identity fails at u={u}")
        # coset identity: q^(1/2) w0(-2) Theta^{GL}(phi_u g_u) = (diff)(-g_u^Sp)
        bu = k.coerce(b) * u
        if not bu.is_square():
            lhs2 = 0.0
        else:
            vb = k.sqrt(bu)
            beta = (vb * vb + k.coerce(b) * u) / vb  # components (1,..,1,u)
            for _ in range(n - 1):
                beta = beta * k.coerce(2)
            lhs2 = q**0.5 * w0(k.coerce(-2)) * zeta * kl_pm(k, n, beta)
        rhs2 = xi * rhs
        if abs(lhs2 - rhs2) > TOL:
            raise IdentityFailed(f"coset lift identity fails at u={u}")
    return b, zeta


def so_even_packet_verify(
    kind: GroupKind, n: int, p: int, xi_plus: int, a_plus: int, nu: int
):
    """The even-orthogonal packet identity chain: the main descent identity at
    each admissible u, the central-sign comparison, and the phi-coset identity
    fixing both zeta branches."""
    if kind not in (GroupKind.SO_SPL, GroupKind.SO_UR):
        raise UnknownPair(str(kind))
    t_inv = 1 if kind is GroupKind.SO_UR else 0
    k = make_field(p)
    w0 = k.omega0()
    q = k.q
    w0m1 = 1 if k.coerce(-1).is_square() else -1
    xi = (-1) ** t_inv * w0m1 * xi_plus
    a_res = k.coerce(a_plus) ** 2 / (k.coerce(2) ** (2 + t_inv) * k.eps**nu)
    a = a_res.a
    spec_big = (
        so_unramified_spec(k, n, twisted=True)
        if t_inv
        else so_split_spec(k, n, twisted=True)
    )
    sign_main = w0m1 if not t_inv else -w0m1
    two = k.coerce(2)
    for u in k.units():
        admissible = (k.coerce(-1) ** (n - 1) * u).is_square() == (nu == 0)
        gamma = (
            k.coerce(-1) ** (n + 1)
            * two ** (2 * n - 2 + t_inv)
            * k.coerce(a)
            * u
        )
        lhs = kloosterman_eval(spec_big, gamma)
        if not admissible:
            if abs(lhs) > TOL:
                raise IdentityFailed(f"inadmissible side fails at u={u}")
            continue
        v = k.sqrt(k.coerce(-1) ** (n - 1) * u / k.eps**nu)
        rhs_kl = kl_pm(k, n, two**n * k.coerce(a_plus) * v)
        if abs(lhs - sign_main * q * rhs_kl) > TOL:
            raise IdentityFailed(f"main identity fails at u={u} ({kind})")
        # central-sign comparison at the negative elements
        if abs(xi * lhs - xi_plus * (-1) ** t_inv * w0m1 * sign_main * q * rhs_kl) > TOL:
            raise IdentityFailed(f"central identity fails at u={u}")
        # phi-coset identity: both zeta branches
        coset_plus, coset_minus = _so_even_coset_values(kind, k, n, a, u)
        target = w0(k.coerce(-2)) ** (1 - t_inv) * rhs_kl
        if abs(coset_plus - target) > TOL:
            raise IdentityFailed(f"coset identity fails at u={u} (zeta=+1)")
        if abs(coset_minus - (-target)) > TOL:
            raise IdentityFailed(f"coset identity fails at u={u} (zeta=-1)")
    b = ((-1) ** (n - 1) * 2 ** (2 + t_inv) * a) % p
    eta_lift = (-1) ** t_inv * q ** (-0.5) * gauss_sum(w0, k) * w0m1 * xi
    return xi, a, (1, -1), b, eta_lift


@lru_cache(maxsize=None)
def coset_descriptor(kind: GroupKind, n: int, p: int, u: int) -> characters.ElementDescriptor:
    """The descriptor of the even-orthogonal phi-coset family element at u."""
    return characters.describe(characters.family_element(kind, n, p, u, "phi_coset"))


def _so_even_coset_values(kind, k, n: int, a: int, u) -> list:
    """(Theta_{xi,0,a,zeta} - Theta_{xi,1,a/eps,zeta}) at the mixed-sign coset
    element for zeta = 1 and zeta = -1, through the closed form (the kappa
    selection happens there)."""
    p = k.p
    desc = coset_descriptor(kind, n, p, u.a)
    values = []
    for zeta in (1, -1):
        total = 0.0 + 0.0j
        for kap, aa in ((0, a), (1, (a * pow(k.eps.a, -1, p)) % p)):
            params = characters.SSCParams(desc.group, aa, 1, kap, zeta)
            val = characters.char_closed_form(params, desc).value
            total += val if kap == 0 else -val
        values.append(total)
    return values


def norm_family_check(pair: Pair, p: int, n: int, u: int) -> bool:
    """Parametrizing-data matching on the families: the linear-group datum maps
    to minus the orthogonal one, and for the odd pair the characteristic
    polynomial of the twisted norm factors through the symplectic family."""
    data = walds_family(p, n, u)
    if pair is Pair.GL_SORAM:
        x = data.x_gl
        lhs = x / x.tau()
        return lhs == -data.y
    if pair is Pair.GL_ODD_SP:
        x = gl_odd_family(p, n, u)
        h = family_matrix(GroupId(GroupKind.SP, n), p, u, "plus")
        ok, a1 = twisted_norm_charpoly_check(x, norm_y=h)
        if a1 is None:
            return False
        expect = (-pow(2, 2 * n, p) * u) % p
        return ok and a1.a == expect
    if pair is Pair.SP_SORAM:
        return data.y * data.y.tau() == data.tower.one()
    raise UnknownPair(str(pair))
