import numpy as np
import pytest
from hypothesis import example, given, settings

from charprod import catalog
from charprod.charops import InducedContext, decompose, kernel_of, principal_character
from charprod.chartab import dixon_table
from charprod.errors import GroupMismatch, NotAPGroup, NotNormal
from charprod.perm import Permutation, group_closure
from charprod.structure import (
    chief_factor_above,
    normal_lattice,
    normals_of_index,
    quotient,
)

from oracles import (
    chief_factor_scan,
    class_sets,
    generator_sets,
    inverse,
    normal_lattice_oracle,
    normal_powerset_oracle,
    pairwise_lattice_reference,
    subgroup_sorted_lattice,
)

CATALOG_IDS = catalog.builtin_ids()
P_GROUP_IDS = [spec.id for spec in catalog.group_specs() if spec.prime]


def lattice_of(gid, group_of, table_of):
    return normal_lattice(group_of(gid), table_of(gid))


def test_cp_lattice(group_of, table_of):
    lat = lattice_of("cyclic3", group_of, table_of)
    assert [m.order for m in lat.members] == [1, 3]


def test_d8_lattice(group_of, table_of):
    lat = lattice_of("dihedral8", group_of, table_of)
    assert [m.order for m in lat.members] == [1, 2, 4, 4, 4, 8]
    assert all(m.is_normal for m in lat.members)


def test_lattice_closed_under_intersection(group_of, table_of):
    for gid in ("dihedral8", "sl23", "heisenberg3", "modular16"):
        lat = lattice_of(gid, group_of, table_of)
        sets = {m.element_set for m in lat.members}
        for a in sets:
            for b in sets:
                assert a & b in sets


@pytest.mark.parametrize("gid", [
    "cyclic8", "elemab_2_3", "elemab_3_2", "dihedral8", "dihedral16",
    "quaternion8", "quaternion16", "semidihedral16", "modular16",
    "heisenberg3", "extraspecial27_exp9", "wreath2", "sl23",
    "elemab_3_3", "dihedral8_x_dihedral8",
])
def test_lattice_matches_class_union_oracle(gid, group_of, table_of):
    g = group_of(gid)
    if g.order > 64:
        pytest.skip("oracle pinned to |G| <= 64")
    lat = lattice_of(gid, group_of, table_of)
    assert set(class_sets(lat.masks)) == normal_lattice_oracle(g)


@pytest.mark.parametrize("gid", ["dihedral8", "quaternion8", "sl23", "heisenberg3", "modular16"])
def test_join_oracle_matches_powerset_oracle(gid, group_of):
    g = group_of(gid)
    assert normal_lattice_oracle(g) == normal_powerset_oracle(g)


def test_normals_of_index(group_of, table_of):
    assert len(normals_of_index(lattice_of("cyclic3", group_of, table_of), 3)) == 1
    d8 = lattice_of("dihedral8", group_of, table_of)
    assert [m.order for m in normals_of_index(d8, 2)] == [4, 4, 4]
    ea9 = lattice_of("elemab_3_2", group_of, table_of)
    assert len(normals_of_index(ea9, 3)) == 4  # p + 1 hyperplanes


def test_chief_factors(group_of, table_of):
    c3 = lattice_of("cyclic3", group_of, table_of)
    ys = chief_factor_above(c3, c3.members[0])
    assert [y.order for y in ys] == [3]

    ea9 = lattice_of("elemab_3_2", group_of, table_of)
    assert len(chief_factor_above(ea9, ea9.members[0])) == 4

    d8 = lattice_of("dihedral8", group_of, table_of)
    center = d8.members[1]
    ys = chief_factor_above(d8, center)
    assert [y.order for y in ys] == [4, 4, 4]
    # nothing strictly between Z and Y
    for y in ys:
        for m in d8.members:
            assert not (center.element_set < m.element_set < y.element_set)


def test_chief_factor_rejects_non_p_group(group_of, table_of):
    lat = lattice_of("sl23", group_of, table_of)
    with pytest.raises(NotAPGroup):
        chief_factor_above(lat, lat.members[0])


def _normal_subgroup_of_a_copy(g):
    """The derived subgroup of an equal but distinct Group object."""
    return group_closure(g.generators).derived_subgroup()


def test_chief_factor_rejects_a_subgroup_of_another_group(group_of, table_of):
    foreign = _normal_subgroup_of_a_copy(group_of("dihedral8"))
    with pytest.raises(GroupMismatch):
        chief_factor_above(lattice_of("dihedral8", group_of, table_of), foreign)


def test_quotient_rejects_a_subgroup_of_another_group(group_of):
    g = group_of("dihedral8")
    with pytest.raises(GroupMismatch):
        quotient(g, _normal_subgroup_of_a_copy(g))


def test_quotient_examples(group_of, table_of):
    g = group_of("dihedral8")
    t = table_of("dihedral8")
    lat = normal_lattice(g, t)

    whole = quotient(g, lat.members[-1])
    assert whole.quotient.order == 1

    faithful = quotient(g, lat.members[0])
    assert faithful.quotient.order == 8
    assert faithful.quotient.num_classes == 5

    by_center = quotient(g, lat.members[1])
    assert by_center.quotient.order == 4
    assert by_center.quotient.exponent == 2  # C2 x C2


def test_quotient_rejects_non_normal(group_of):
    g = group_of("sl23")
    bad = next(g.subgroup([i]) for i in range(1, g.order) if not g.subgroup([i]).is_normal)
    with pytest.raises(NotNormal):
        quotient(g, bad)


def test_projection_is_homomorphism(group_of, table_of):
    g = group_of("dihedral8")
    lat = normal_lattice(g, dixon_table(g))
    qm = quotient(g, lat.members[1])
    proj = qm.projection
    for a in range(g.order):
        for b in range(g.order):
            assert proj[g.mul(a, b)] == qm.quotient.mul(proj[a], proj[b])
    assert qm.quotient.order * lat.members[1].order == g.order


def test_inflation_round_trip(group_of, table_of):
    g = group_of("heisenberg3")
    t = table_of("heisenberg3")
    lat = normal_lattice(g, t)
    center = next(m for m in lat.members if m.order == 3)
    qm = quotient(g, center)
    qt = dixon_table(qm.quotient)
    for tau in qt.irreducibles:
        lifted = qm.inflate(tau)
        dec = decompose(lifted, t)
        assert dec.eta == 1 and dec.constituents[0][1] == 1
        assert center.element_set <= kernel_of(lifted).element_set
        assert lifted.values[0] == tau.values[0]


def lattice_json(lattice):
    """Per member: its order, index, generator texts and the members that
    hold it properly ("is_in"), read off the class masks."""
    group, masks = lattice.group, lattice.masks
    # holds[j, i]: member j holds every class of member i
    holds = (masks[:, None, :] | ~masks[None, :, :]).all(axis=2)
    np.fill_diagonal(holds, False)
    return [
        {
            "order": member.order,
            "index": group.order // member.order,
            "generator_cycles": [group.element(g).to_text() for g in member.generators()],
            "is_in": np.flatnonzero(holds[:, i]).tolist(),
        }
        for i, member in enumerate(lattice.members)
    ]


def test_lattice_json(group_of, table_of):
    lat = lattice_of("dihedral8", group_of, table_of)
    payload = lattice_json(lat)
    assert len(payload) == 6
    assert payload[0]["order"] == 1 and payload[-1]["order"] == 8
    assert payload[0]["index"] == 8
    whole = len(payload) - 1
    for i, entry in enumerate(payload):
        if i != whole:
            assert whole in entry["is_in"]


def test_inflate_rejects_a_foreign_class_function(group_of, table_of):
    g, t = group_of("dihedral8"), table_of("dihedral8")
    qm = quotient(g, normal_lattice(g, t).members[1])
    with pytest.raises(GroupMismatch):
        qm.inflate(t.irreducibles[1])


def _assert_closure_order(g, member):
    """The quotient's elements are in group_closure's breadth-first order,
    and the projection is a homomorphism on every product by a generator."""
    qm = quotient(g, member)
    quot = qm.quotient
    assert np.array_equal(quot.images, group_closure(quot.generators).images)
    everything, gens = np.arange(g.order), np.array(g._gen_indices)[:, None]
    assert np.array_equal(
        qm.projection[g.products(everything, gens)], quot.products(qm.projection[everything], qm.projection[gens])
    )


@pytest.mark.parametrize("gid", P_GROUP_IDS)
def test_quotient_elements_in_closure_order(gid, group_of, table_of):
    g = group_of(gid)
    members = normal_lattice(g, table_of(gid)).members
    assert members[0].order == 1 and members[-1].order == g.order
    for member in members:
        _assert_closure_order(g, member)


def test_quotient_elements_in_closure_order_at_order_2187(product_2187, kernels_2187):
    g, _ = product_2187
    for kernel in kernels_2187:
        _assert_closure_order(g, kernel)


def _assert_pairwise_lattice(g, table):
    lattice = normal_lattice(g, table)
    members, sets = pairwise_lattice_reference(g, table)
    assert [m.element_indices for m in lattice.members] == members
    assert class_sets(lattice.masks) == sets


@pytest.mark.parametrize("gid", CATALOG_IDS)
def test_bitset_lattice_matches_the_pairwise_closure(gid, group_of, table_of):
    _assert_pairwise_lattice(group_of(gid), table_of(gid))


@settings(max_examples=60, deadline=None)
@given(gens=generator_sets())
def test_bitset_lattice_matches_the_pairwise_closure_on_random_groups(gens):
    g = group_closure(gens)
    _assert_pairwise_lattice(g, dixon_table(g))


def _assert_inverses(group):
    expected = [inverse(group.element(i)).images for i in range(group.order)]
    assert [tuple(row) for row in group.images[group.inverses].tolist()] == expected


@settings(max_examples=60, deadline=None)
@given(gens=generator_sets())
@example(gens=[Permutation([1, 2, 3, 0, 4, 5]), Permutation([0, 1, 2, 3, 5, 4])])
@example(gens=[Permutation([1, 0, 2, 3, 4, 5]), Permutation([0, 1, 3, 2, 4, 5]), Permutation([0, 1, 2, 3, 5, 4])])
def test_lattice_chief_factors_and_inverses_match_the_references_on_random_groups(gens):
    """The lattice lists the members of the Subgroup-then-sort reference in
    its order, chief_factor_above picks what the element-set scan picks, and
    inverses are right on the group, on its regular representation G/1 and
    on the trivial group G/G, whose base is empty.  The two examples, C4 x C2
    and C2^3, have normal subgroups of order p|Z| that do not contain Z."""
    g = group_closure(gens)
    table = dixon_table(g)
    lattice = normal_lattice(g, table)
    members, sets = subgroup_sorted_lattice(g, table)
    assert [m.element_indices for m in lattice.members] == [m.element_indices for m in members]
    assert class_sets(lattice.masks) == sets
    assert lattice.orders.tolist() == [m.order for m in members]
    p = g.p_group_prime()
    if p is not None:
        for z in members:
            got = chief_factor_above(lattice, z)
            assert [y.element_indices for y in got] == [y.element_indices for y in chief_factor_scan(members, z, p)]
    regular = quotient(g, lattice.members[0]).quotient
    trivial = quotient(g, lattice.members[-1]).quotient
    assert regular.degree == g.order and trivial.order == 1 and trivial.base == []
    for h in (g, regular, trivial):
        _assert_inverses(h)
