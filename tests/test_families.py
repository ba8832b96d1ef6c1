import hashlib
import json

import pytest

from endolab.errors import InvalidU
from endolab.families import (
    DISC_TABLE,
    FAMILY_VARIANTS,
    base_field,
    family_matrix,
    family_phi,
    nu_of_u,
    weyl_disc_val,
)
from endolab.groups import GroupId, GroupKind, phi_element, theta
from endolab.residue import make_field

# sha256 of the dump below: every family matrix of the variant table at
# n in (2, 3), p in (3, 5, 7), all units u, with the twisted-GL theta images
# and the unramified phi elements.  Zero entries are dumped without their
# absolute precision, so the pin fixes every nonzero entry's digits and
# relative precision, and which entries vanish.
FAMILY_PIN = "251ce2db77ebee6c95e41cb1f7b9c695321613790e2f3e6035fb61c94e20f85b"


def _entry(x):
    return None if x.is_zero() else [x.shift, x.unit, x.rprec]


def _matrix(g):
    return [[_entry(x) for x in row] for row in g.entries]


def test_family_matrices_are_pinned():
    dump = []
    for kind, variants in FAMILY_VARIANTS.items():
        for n in (2, 3):
            for p in (3, 5, 7):
                for u in range(1, p):
                    nu = nu_of_u(make_field(p), n, u) if kind is GroupKind.SO_RAM else 0
                    gid = GroupId(kind, n, nu)
                    for variant in variants:
                        g = family_matrix(gid, p, u, variant)
                        dump.append(_matrix(g))
                        if kind is GroupKind.TWISTED_GL:
                            dump.append(_matrix(theta(g)))
                    if kind is GroupKind.SO_UR:
                        phi = phi_element(gid, base_field(p), *family_phi(gid, p, u, "phi_coset"))
                        dump.append(_matrix(phi))
    assert hashlib.sha256(json.dumps(dump).encode()).hexdigest() == FAMILY_PIN


@pytest.mark.parametrize("kind", list(GroupKind))
def test_bogus_variant_is_invalid_on_every_kind(kind):
    with pytest.raises(InvalidU):
        family_matrix(GroupId(kind, 2), 5, 1, "bogus")


@pytest.mark.parametrize("kind", [GroupKind.SP, GroupKind.SO_RAM, GroupKind.TWISTED_GL])
def test_phi_coset_only_on_even_orthogonal_kinds(kind):
    with pytest.raises(InvalidU):
        family_matrix(GroupId(kind, 2), 5, 1, "phi_coset")


@pytest.mark.parametrize("kind, variant", list(DISC_TABLE))
def test_every_disc_table_entry_matches_the_eigenvalue_route(kind, variant):
    """Each tabulated discriminant valuation, the ones no suite reads
    included, agrees with the root-by-root eigenvalue route."""
    for n, p in ((2, 5), (3, 7)):
        for u in (1, 2):
            nu = nu_of_u(make_field(p), n, u) if kind is GroupKind.SO_RAM else 0
            gid = GroupId(kind, n, nu)
            assert weyl_disc_val(gid, p, u, variant, direct=True) == DISC_TABLE[(kind, variant)](n)
