import pytest

from endolab.errors import InvalidU
from endolab.families import (
    DISC_TABLE,
    FAMILY_VARIANTS,
    family_matrix,
    nu_of_u,
    weyl_disc_val,
)
from endolab.groups import GroupId, GroupKind
from endolab.residue import make_field


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
            assert weyl_disc_val(gid, p, u, variant) == DISC_TABLE[(kind, variant)](n)
