"""Transfer factors on the explicit element families and the endoscopic
character identities that pin down packet parameters; the three identity
chains read one packet map, ``packet_solution``.

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
    family_eigenvalues,
    family_matrix,
    gl_odd_family,
    so_plane,
    walds_family,
)
from .groups import (
    GroupId,
    GroupKind,
    twisted_norm_charpoly_check,
)
from .residue import make_field
from .sums import (
    TOL,
    gauss_sum,
    kl_pm,
    kloosterman_eval,
    so_split_spec,
    so_unramified_spec,
    sp_spec,
)
from .padic import tame_hilbert


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
# the eta invariant (Whittaker normalization) of the even-orthogonal kinds,
# which delta_iv_walds reads; tests/test_endoscopy.py checks it against the
# principal nilpotent recipe


ETA_CLOSED = {
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
    if not direct:
        phi_power = t.phi(2 * n - 1 if sign == "+" else -1)
        return t.from_int(2) * t.from_int(2 * n) * phi_power * data.pol_den_inv
    one = t.one()
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
    y, y_inv = (-data.y, -data.y_inv) if minus else (data.y, data.y_inv)
    x = data.tower.phi() * data.x_gl if minus else data.x_gl
    return -x.inv(), y_inv ** (n - 1), y_inv**n, one + y, (y - one).inv()


@lru_cache(maxsize=None)
def so_factors(kind: GroupKind, p: int, n: int, u: int, variant: str) -> tuple:
    """(dfac, cfac) of the even-orthogonal sign-character argument."""
    data = walds_family(p, n, u)
    t = data.tower
    one, phi, two = t.one(), t.phi(), t.from_int(2)
    w, one_minus_w_inv = so_plane(kind, p, n, u)
    num = one - phi**2 * w if variant == "phi_coset" else phi**2 - w
    dfac = two**2 * num * data.one_minus_phi_inv**2 * one_minus_w_inv
    cfac = (two**2 if variant == "plus" else -(two**2) * w) * one_minus_w_inv
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
        # -eta, not eta: the sign multiplies the argument by -1, so dropping it
        # multiplies every value by w0(-1) (a flip at p = 3 mod 4).  The
        # ecr_so_even rows pin it: with it dropped and the pairs'
        # DELTA_IV_EXPECTED units flipped to match, they fail at q = 3 and 7
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
    s = delta_iv_walds(pair, p, n, u, variant)
    return TransferValue(sign=s) * delta4(pair, n, variant) * epsilon_factor(pair)


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
    """The packet data of a G-side parameter (xi, a): the SO_ram parameters
    (xi', a'^2, nu) and the twisted-GL data (b, zeta), zeta a sign as in
    ``SSCParams``; on the even-orthogonal pairs zeta is the eta-lift."""

    xi_prime: int
    a_prime_sq: int
    nu_mu: int
    gl_b: int
    gl_zeta: int


def packet_solution(pair: Pair, n: int, p: int, xi: int, a: int) -> PacketSolution:
    """The packet map at the G-side (xi, a).  With t = 1 on SOUR_H and 0
    otherwise, and c = (-1)^(n-1) * 4 on SP_SORAM and 2^(2+t) on the
    even-orthogonal pairs: a'^2 = c * eps^nu * a for the one nu that makes it a
    square, xi' = (-1)^t * w0(-1) * xi, b = (-1)^(n-1) * c * a and zeta the sign
    within TOL of xi' * G(w0, psi) / (q^(1/2) zeta_unit), else IdentityFailed."""
    if pair not in (Pair.SP_SORAM, Pair.SOSPL_H, Pair.SOUR_H):
        raise UnknownPair(str(pair))
    if xi not in (1, -1) or a % p == 0:
        raise InvalidParams(f"(xi, a) = ({xi}, {a}) needs xi = +-1 and a unit mod {p}")
    k = make_field(p)
    t = 1 if pair is Pair.SOUR_H else 0
    sign = (-1) ** (n - 1) if pair is Pair.SP_SORAM else 1
    ca = k.coerce(sign * 2 ** (2 + t) * a)
    nu = 0 if ca.is_square() else 1
    xi_prime = (-1) ** t * (1 if k.coerce(-1).is_square() else -1) * xi
    ratio = xi_prime * gauss_sum(k.omega0(), k) / (k.q**0.5 * characters.zeta_unit(GroupKind.TWISTED_GL, k.q))
    zeta = 1 if ratio.real > 0 else -1
    if abs(ratio - zeta) > TOL:
        raise IdentityFailed(f"xi' G(w0, psi) / (q^(1/2) zeta_unit) is {ratio:.3g}, not a sign")
    b = k.coerce(-1) ** (n - 1) * ca
    return PacketSolution(xi_prime, (ca * k.eps**nu).a, nu, b.a, zeta)


def sp_difference(k, n: int, a: int, u) -> complex:
    """w0(2au) Kl_{chi_Sp}(2^(2n) a u): the symplectic packet difference at the
    family element g_u, through its closed form."""
    au = k.coerce(a) * u
    spec = sp_spec(k, n, twisted=True)
    return k.omega0()(k.coerce(2) * au) * kloosterman_eval(spec, k.coerce(2) ** (2 * n) * au)


def soram_side(k, n: int, sol: PacketSolution, u) -> complex | None:
    """kl_pm(2^n a' w) with w^2 = (-1)^(n-1) u / eps^nu: the SO_ram side of the
    packet identities at u, or None where w is not in k (the G side vanishes
    there).  kl_pm is even, so neither square root needs a choice."""
    w_sq = k.coerce(-1) ** (n - 1) * u / k.eps**sol.nu_mu
    if not w_sq.is_square():
        return None
    a_prime = k.sqrt(k.coerce(sol.a_prime_sq))
    return kl_pm(k, n, k.coerce(2) ** n * a_prime * k.sqrt(w_sq))


def _descent_identities(pair: Pair, k, n: int, sol: PacketSolution, diff) -> list:
    """At each unit u, with D = diff(u), S the SO_ram side and c_var =
    ecr_coefficient(pair, n, var): the main identity D = c_plus * S, and the
    central-sign identity D = xi' * c_minus * S at the negative family
    element, with xi' from the xi = 1 packet (the packet map is odd in xi, so
    the xi = -1 identity is this one negated); D must vanish where S is
    undefined.  Returns the pairs (u, S) where S is defined."""
    plus, minus = (ecr_coefficient(pair, n, var).evaluate(k) for var in ("plus", "minus"))
    sides = []
    for u in k.units():
        d = diff(u)
        side = soram_side(k, n, sol, u)
        if side is None:
            if abs(d) > TOL:
                raise IdentityFailed(f"vanishing side fails at u={u}")
            continue
        if abs(d - plus * side) > TOL:
            raise IdentityFailed(f"main identity fails at u={u} ({pair.value})")
        if abs(d - sol.xi_prime * minus * side) > TOL:
            raise IdentityFailed(f"central-sign identity fails at u={u} ({pair.value})")
        sides.append((u, side))
    return sides


def ecr_ram_descent_verify(n: int, p: int, a: int) -> PacketSolution:
    """The descent identity chain of SP_SORAM at the G-side a, read through
    the xi = 1 packet: at every unit u, the symplectic packet difference
    against the weighted ramified-orthogonal side."""
    sol = packet_solution(Pair.SP_SORAM, n, p, 1, a)
    k = make_field(p)
    _descent_identities(Pair.SP_SORAM, k, n, sol, lambda u: sp_difference(k, n, a, u))
    return sol


def ecr_gl_lift_verify(n: int, p: int, a: int) -> PacketSolution:
    """The two lifting identities of the twisted-GL data (b, zeta) of the
    symplectic a, at xi = 1, and the GL_SORAM weight identities on the same
    twisted characters: at each unit u where the SO_ram side S is defined,
    Theta^{GL}(g_u) = c_plus * S and Theta^{GL}(phi_u g_u) = xi' * c_minus * S,
    with c_var = ecr_coefficient(GL_SORAM, n, var).  The coset value is zeta * S
    by its closed form (zeta the packet sign times ``zeta_unit``), so the second
    weight identity compares zeta with xi' * c_minus.  zeta is odd in xi, so the
    xi = -1 coset identities are these negated; packet_solution reads it from
    G(w0, psi), whose square the exp_sums suite's gauss_square rows check."""
    sol = packet_solution(Pair.SP_SORAM, n, p, 1, a)
    k = make_field(p)
    w0 = k.omega0()
    b, zeta = k.coerce(sol.gl_b), sol.gl_zeta * characters.zeta_unit(GroupKind.TWISTED_GL, k.q)
    spec_gl = sp_spec(k, n, twisted=True)
    w02 = w0(k.coerce(2))
    plus, minus = (ecr_coefficient(Pair.GL_SORAM, n, var).evaluate(k) for var in ("plus", "minus"))
    for u in k.units():
        # plain identity: w0(2) Theta^{GL}(g_u) = (Theta difference)(g_u^Sp)
        bu = b * u
        theta = w0(bu) * kloosterman_eval(spec_gl, bu * k.coerce(2) ** (2 * (n - 1)))
        rhs = sp_difference(k, n, a, u)
        if abs(w02 * theta - rhs) > TOL:
            raise IdentityFailed(f"plain lift identity fails at u={u}")
        # coset identity: q^(1/2) w0(-2) Theta^{GL}(phi_u g_u) = (diff)(-g_u^Sp);
        # the GL closed form at the components (1,..,1,u) reads kl_pm(2^n sqrt(bu)),
        # the SO_ram side (a'^2 w^2 = bu), and vanishes where bu is not a square
        side = soram_side(k, n, sol, u)
        theta_coset = 0.0 if side is None else zeta * side
        if abs(k.q**0.5 * w0(k.coerce(-2)) * theta_coset - rhs) > TOL:
            raise IdentityFailed(f"coset lift identity fails at u={u}")
        if side is None:
            continue
        if abs(theta - plus * side) > TOL:
            raise IdentityFailed(f"plain weight identity fails at u={u} ({Pair.GL_SORAM.value})")
        if abs(theta_coset - sol.xi_prime * minus * side) > TOL:
            raise IdentityFailed(f"coset weight identity fails at u={u} ({Pair.GL_SORAM.value})")
    return sol


def _so_even_pair(kind: GroupKind) -> Pair:
    """The even-orthogonal pair whose group G has this kind."""
    pair = {GroupKind.SO_SPL: Pair.SOSPL_H, GroupKind.SO_UR: Pair.SOUR_H}.get(kind)
    if pair is None:
        raise UnknownPair(str(kind))
    return pair


@lru_cache(maxsize=None)
def coset_descriptor(kind: GroupKind, n: int, p: int, u: int) -> characters.ElementDescriptor:
    """The descriptor of the even-orthogonal phi-coset family element at u."""
    return characters.describe(characters.family_element(kind, n, p, u, "phi_coset"))


def so_even_packet_verify(kind: GroupKind, n: int, p: int, a: int) -> PacketSolution:
    """The even-orthogonal packet identity chain at the G-side a, read through
    the xi = 1 packet: the main and central-sign identities of the descent
    chain, with the packet difference D = w0(-2)^(1-t) Kl~(gamma) (t = 1 on
    SO_ur), and the phi-coset identity for both zeta branches: at each unit u
    where the SO_ram side S is defined, Theta_{1,0,a,zeta} -
    Theta_{1,1,a/eps,zeta} at the mixed-sign coset element is
    zeta * c_phi * S, with c_phi = ecr_coefficient(pair, n, "phi_coset").  The
    coset difference is read from the closed form, which selects kappa."""
    pair = _so_even_pair(kind)
    sol = packet_solution(pair, n, p, 1, a)
    t = 1 if pair is Pair.SOUR_H else 0
    k = make_field(p)
    spec = (so_unramified_spec if t else so_split_spec)(k, n, twisted=True)
    scale = k.omega0()(k.coerce(-2)) ** (1 - t)
    # gamma = (-1)^(n+1) 2^(2n-2+t) a u
    c = k.coerce(-1) ** (n + 1) * k.coerce(2) ** (2 * n - 2 + t) * k.coerce(a)
    coset = ecr_coefficient(pair, n, "phi_coset").evaluate(k)
    a_eps = a * pow(k.eps.a, -1, p) % p
    for u, side in _descent_identities(pair, k, n, sol, lambda u: scale * kloosterman_eval(spec, c * u)):
        desc = coset_descriptor(kind, n, p, u.a)
        for zeta in (1, -1):
            diff = (
                characters.char_closed_form(characters.SSCParams(desc.group, a, 1, 0, zeta), desc).value
                - characters.char_closed_form(characters.SSCParams(desc.group, a_eps, 1, 1, zeta), desc).value
            )
            if abs(diff - zeta * coset * side) > TOL:
                raise IdentityFailed(f"coset identity fails at u={u} (zeta={zeta:+d})")
    return sol


def norm_family_check(p: int, n: int, u: int) -> bool:
    """Parametrizing-data matching on the odd pair's family: the
    characteristic polynomial of the twisted norm of ``gl_odd_family`` factors
    through the symplectic family matrix, with a1 = -2^(2n) u."""
    x = gl_odd_family(p, n, u)
    h = family_matrix(GroupId(GroupKind.SP, n), p, u, "plus")
    ok, a1 = twisted_norm_charpoly_check(x, norm_y=h)
    if a1 is None:
        return False
    expect = (-pow(2, 2 * n, p) * u) % p
    return ok and a1.a == expect
