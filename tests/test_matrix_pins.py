"""Pins of group-element matrices that do not depend on how a matrix is
stored: every entry x is dumped as the int p*x mod p^7.  Every entry these
pins cover has valuation >= -1 and is known to p^6, so the dump is a
certified value of the element."""

import hashlib
import json
import random
from fractions import Fraction

from endolab.characters import random_affine_generic
from endolab.families import (
    FAMILY_VARIANTS,
    family_matrix,
    family_phi,
    nu_of_u,
)
from endolab.groups import (
    GroupId,
    GroupKind,
    in_px_plus,
    is_affine_generic,
    iwahori_mask_at,
    phi_element,
    px_plus_mask_at,
    sample_iplus,
    theta,
)
from endolab.residue import make_field

DIGITS = 7


def _dump(g):
    """Each entry x of g = p^-s * a as the int p*x mod p^7."""
    assert g.s <= 1 and g.prec - g.s >= DIGITS - 1
    return [[x * g.p ** (1 - g.s) % g.p**DIGITS for x in row] for row in g.a]


def _sha(dump):
    return hashlib.sha256(json.dumps(dump).encode()).hexdigest()


# every family matrix of the variant table at n in (2, 3), p in (3, 5, 7), all
# units u, with the twisted-GL theta images and the unramified phi elements
FAMILY_DIGITS_PIN = "6ba535867ce4fffb5f1678dcf6d50e2cb6eedaa4dd3b441081038f02fedfa901"


def test_family_matrix_digits_are_pinned():
    dump = []
    for kind, variants in FAMILY_VARIANTS.items():
        for n in (2, 3):
            for p in (3, 5, 7):
                for u in range(1, p):
                    nu = nu_of_u(make_field(p), n, u) if kind is GroupKind.SO_RAM else 0
                    gid = GroupId(kind, n, nu)
                    for variant in variants:
                        g = family_matrix(gid, p, u, variant)
                        dump.append(_dump(g))
                        if kind is GroupKind.TWISTED_GL:
                            dump.append(_dump(theta(g)))
                    if kind is GroupKind.SO_UR:
                        phi = phi_element(gid, p, *family_phi(gid, p, u, "phi_coset"))
                        dump.append(_dump(phi))
    assert _sha(dump) == FAMILY_DIGITS_PIN


# the first 10 accepted draws at q = 3, seed 0: of random_affine_generic per
# (kind, n), and of both I+ samplers of the charpoly suite per n
SAMPLER_PIN = "29564d65b961b63a0681bd43f685e198b6c139c7cad651a4fd632cdaa81f5360"
DRAWS = 10


def test_sampler_draws_are_pinned():
    q = 3
    dump = []
    for n in (2, 3):
        for kind in FAMILY_VARIANTS:
            for nu in (0, 1) if kind is GroupKind.SO_RAM else (0,):
                rng = random.Random(0)
                gid = GroupId(kind, n, nu)
                dump += [_dump(random_affine_generic(gid, q, rng).matrix) for _ in range(DRAWS)]
        gid = GroupId(GroupKind.TWISTED_GL, n)
        mask = iwahori_mask_at(gid, Fraction(1, gid.coxeter))
        rng = random.Random(0)
        dump += [_dump(sample_iplus(gid, q, mask, rng, is_affine_generic)) for _ in range(DRAWS)]
        gid = GroupId(GroupKind.GL, 2 * n + 1)
        rng = random.Random(0)
        dump += [
            _dump(sample_iplus(gid, q, px_plus_mask_at(n), rng, in_px_plus))
            for _ in range(DRAWS)
        ]
    assert _sha(dump) == SAMPLER_PIN
