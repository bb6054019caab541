import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from charprod import catalog
from charprod import charops as co
from charprod import perm
from charprod.charops import (
    InducedContext,
    center_of,
    clifford_correspondent,
    conjugate_character,
    decompose,
    induce,
    inner_product,
    irr_lying_over,
    kernel_of,
    linear_characters,
    principal_character,
    product,
    restrict,
    stabilizer_and_orbit,
    vanishing_off,
)
from charprod.chartab import dixon_table
from charprod.errors import (
    GroupMismatch,
    IntegralityViolation,
    NotACharacter,
    NotASubgroup,
    NotNormal,
)
from charprod.perm import Group, Subgroup, direct_product, group_closure, parse_generators
from charprod.structure import normal_lattice
from charprod.verify import STATEMENTS, GroupSession, run_suite

from oracles import (
    center_sets_reference,
    class_sets,
    exact_values,
    generator_sets,
    induce_by_summation,
    normal_lattice_oracle,
    promotion_reference,
    stabilizer_and_orbit_oracle,
)


def degree2(table):
    return next(chi for chi, d in zip(table.irreducibles, table.degrees) if d == 2)


def test_product_with_principal(table_of):
    t = table_of("dihedral8")
    one = principal_character(t.group)
    chi = degree2(t)
    assert product(one, chi) == chi
    assert (chi * chi.conj()).values[0] == Fraction(4)


def test_product_group_mismatch(table_of):
    a = table_of("dihedral8")
    b = table_of("cyclic3")
    with pytest.raises(GroupMismatch):
        product(a.irreducibles[0], b.irreducibles[0])


def test_d8_square_is_all_linears(table_of):
    t = table_of("dihedral8")
    chi = degree2(t)
    square = chi * chi
    central = next(j for j in range(1, t.group.num_classes) if t.group.class_sizes[j] == 1)
    for j, v in enumerate(square.values):
        expected = 4 if j in (0, central) else 0
        assert v.as_integer() == expected
    dec = decompose(square, t)
    assert dec.eta == 4
    assert dec.constituents == ((0, 1), (1, 1), (2, 1), (3, 1))


def test_inner_product_examples(table_of):
    t = table_of("dihedral8")
    one = t.irreducibles[0]
    assert inner_product(one, one) == 1
    for i in range(len(t.irreducibles)):
        for j in range(len(t.irreducibles)):
            assert inner_product(t.irreducibles[i], t.irreducibles[j]) == (1 if i == j else 0)

    sl = table_of("sl23")
    chi = sl.irreducibles[6]
    assert inner_product(chi * chi, chi, characters=True) == 2


def test_inner_product_integrality_violation(table_of):
    t = table_of("dihedral8")
    chi = degree2(t)
    half = chi * Fraction(1, 2)
    with pytest.raises(IntegralityViolation):
        inner_product(half, chi, characters=True)


def test_decompose_examples(table_of):
    t = table_of("heisenberg3")
    for i, chi in enumerate(t.irreducibles):
        dec = decompose(chi, t)
        assert dec.constituents == ((i, 1),) and dec.eta == 1
    chi3 = next(chi for chi, d in zip(t.irreducibles, t.degrees) if d == 3)
    dec = decompose(chi3 * chi3.conj(), t)
    assert dec.eta == 9
    assert all(t.degrees[i] == 1 and m == 1 for i, m in dec.constituents)


def test_decompose_rejects_non_characters(table_of):
    t = table_of("dihedral8")
    diff = t.irreducibles[1] - t.irreducibles[2]
    with pytest.raises(NotACharacter):
        decompose(diff, t)


def test_reconstruction_round_trip(table_of):
    t = table_of("sl23")
    rng = random.Random(3)
    for _ in range(5):
        i = rng.randrange(len(t.irreducibles))
        j = rng.randrange(len(t.irreducibles))
        f = t.irreducibles[i] * t.irreducibles[j]
        assert decompose(f, t).reconstruct(t) == f


def test_center_kernel_vanishing(table_of):
    t = table_of("dihedral8")
    g = t.group
    one = principal_character(g)
    assert center_of(one).order == g.order
    assert vanishing_off(one).order == g.order
    assert kernel_of(one).order == g.order

    chi = degree2(t)
    assert center_of(chi).order == 2
    assert vanishing_off(chi).order == 2
    assert kernel_of(chi).order == 1
    assert kernel_of(chi * chi.conj()).element_set == center_of(chi).element_set

    c4 = table_of("cyclic4")
    faithful = next(
        chi for chi in c4.irreducibles
        if all(kernel_of(chi).order == 1 for _ in [0])
    )
    assert center_of(faithful).order == 4


def test_center_kernel_normal_and_nested(table_of):
    for gid in ("dihedral8", "sl23", "heisenberg3"):
        t = table_of(gid)
        for chi in t.irreducibles:
            z = center_of(chi)
            k = kernel_of(chi)
            assert z.is_normal and k.is_normal
            assert k.element_set <= z.element_set


@settings(max_examples=40, deadline=None)
@given(gens=generator_sets())
def test_center_of_matches_the_norm_rule_on_random_groups(gens):
    """Z(chi) of every irreducible of a random permutation group, read as
    the classes where chi(g) is chi(1) times a power of zeta, holds the
    elements of the classes where |chi(g)|^2 = chi(1)^2 by exact norms."""
    g = group_closure(gens)
    table = dixon_table(g)
    for chi, classes in zip(table.irreducibles, center_sets_reference(*table.coefficient_tensor()), strict=True):
        assert center_of(chi).element_set == frozenset(g.class_members(sorted(classes)).tolist())


def test_center_of_needs_a_positive_rational_degree(table_of):
    """The zero function, -chi and chi - psi with chi(1) = psi(1) have no
    center: their value at 1 is not a positive rational."""
    t = table_of("heisenberg3")
    chi, psi = [c for c, d in zip(t.irreducibles, t.degrees) if d == 3]
    for f in (chi - chi, chi * -1, chi - psi):
        with pytest.raises(ValueError, match="positive rational"):
            center_of(f)


def test_vanishing_off_extraspecial(table_of):
    t = table_of("heisenberg3")
    chi3 = next(chi for chi, d in zip(t.irreducibles, t.degrees) if d == 3)
    assert vanishing_off(chi3).order == 3


def test_support_monotonicity(table_of):
    t = table_of("heisenberg3")
    rng = random.Random(5)
    for _ in range(8):
        a = t.irreducibles[rng.randrange(len(t.irreducibles))]
        b = t.irreducibles[rng.randrange(len(t.irreducibles))]
        v_prod = vanishing_off(a * b).element_set
        assert v_prod <= vanishing_off(a).element_set
        assert v_prod <= vanishing_off(b).element_set


def test_linear_characters_counts(table_of):
    assert len(linear_characters(table_of("elemab_2_3"))) == 8
    assert len(linear_characters(table_of("dihedral8"))) == 4
    assert len(linear_characters(table_of("sl23"))) == 3


def test_restrict_examples(table_of):
    t = table_of("dihedral8")
    g = t.group
    chi = degree2(t)
    ctx = InducedContext.build(g, center_of(chi))
    r = restrict(chi, ctx)
    assert [v.as_integer() for v in r.values] == [2, -2]
    one = restrict(principal_character(g), ctx)
    assert all(v.as_integer() == 1 for v in one.values)
    assert restrict(chi, ctx).values[0] == chi.values[0]


def test_induce_examples(table_of):
    t = table_of("dihedral8")
    g = t.group
    rot = g.subgroup([g.element_index(g.generators[0])])
    ctx = InducedContext.build(g, rot)
    assert ctx.table.degrees == (1, 1, 1, 1)
    induced_degree2 = 0
    for lam in ctx.table.irreducibles:
        up = induce(lam, ctx)
        assert up.values[0].as_integer() == 2
        if decompose(up, t).constituents == ((4, 1),):
            induced_degree2 += 1
    assert induced_degree2 == 2  # the two faithful linears of the C4


def test_induction_forms_agree(table_of):
    for gid in ("dihedral8", "sl23", "heisenberg3"):
        t = table_of(gid)
        g = t.group
        rng = random.Random(11)
        seeds = [
            [rng.randrange(g.order)] for _ in range(3)
        ]
        for seed in seeds:
            ctx = InducedContext.build(g, g.subgroup(seed))
            for lam in ctx.table.irreducibles[:4]:
                assert induce(lam, ctx) == induce_by_summation(lam, ctx)


def test_frobenius_reciprocity(table_of):
    for gid in ("dihedral8", "sl23", "heisenberg3"):
        t = table_of(gid)
        g = t.group
        rng = random.Random(13)
        for _ in range(6):
            seed = [rng.randrange(g.order), rng.randrange(g.order)]
            ctx = InducedContext.build(g, g.subgroup(seed))
            f = ctx.table.irreducibles[rng.randrange(len(ctx.table.irreducibles))]
            chi = t.irreducibles[rng.randrange(len(t.irreducibles))]
            lhs = inner_product(induce(f, ctx), chi)
            rhs = inner_product(f, restrict(chi, ctx))
            assert lhs == rhs


def test_index_p_trivial_induction(table_of):
    # 1_N^G for |G:N| = p decomposes into p distinct linears
    t = table_of("heisenberg3")
    g = t.group
    from charprod.structure import normal_lattice, normals_of_index

    lat = normal_lattice(g, t)
    for n_sub in normals_of_index(lat, 3):
        ctx = InducedContext.build(g, n_sub)
        up = induce(principal_character(ctx.group), ctx)
        dec = decompose(up, t)
        assert dec.eta == 3
        assert all(m == 1 and t.degrees[i] == 1 for i, m in dec.constituents)


def test_conjugate_character_action(table_of):
    t = table_of("dihedral8")
    g = t.group
    rot = g.subgroup([g.element_index(g.generators[0])])
    ctx = InducedContext.build(g, rot)
    faithful = [
        (k, lam) for k, lam in enumerate(ctx.table.irreducibles)
        if kernel_of(lam).order == 1
    ]
    assert len(faithful) == 2
    (ka, lam_a), (kb, lam_b) = faithful
    reflection = next(
        i for i in range(g.order)
        if i not in rot.element_set
    )
    assert conjugate_character(lam_a, ctx, reflection) == lam_b
    for x in rot.element_indices:
        assert conjugate_character(lam_a, ctx, x) == lam_a
    one = principal_character(ctx.group)
    assert conjugate_character(one, ctx, reflection) == one
    # group action composition
    rng = random.Random(17)
    for _ in range(5):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        lhs = conjugate_character(conjugate_character(lam_a, ctx, x), ctx, y)
        rhs = conjugate_character(lam_a, ctx, g.mul(y, x))
        assert lhs == rhs


def test_conjugate_requires_normal(table_of):
    t = table_of("sl23")
    g = t.group
    non_normal = next(
        g.subgroup([i]) for i in range(1, g.order)
        if not g.subgroup([i]).is_normal
    )
    ctx = InducedContext.build(g, non_normal)
    with pytest.raises(NotNormal):
        conjugate_character(ctx.table.irreducibles[0], ctx, 1)


def _orbit_inputs(group_of):
    """(context of a normal subgroup, expected stabilizer order and orbit
    length of its last linear character, or None where only the oracle
    decides): the rotations of dihedral8 and every member of the normal
    lattice of heisenberg3."""
    d8 = group_of("dihedral8")
    rot = d8.subgroup([d8.element_index(d8.generators[0])])
    h = group_of("heisenberg3")
    members = normal_lattice(h, dixon_table(h)).members
    assert len(members) == 7
    return [(InducedContext.build(d8, rot), (4, 2))] + [(InducedContext.build(h, m), None) for m in members]


def test_stabilizer_and_orbit(group_of):
    for ctx, expected in _orbit_inputs(group_of):
        g = ctx.parent
        assert ctx.subgroup.is_normal
        lam = ctx.table.irreducibles[ctx.table.linear_indices()[-1]]
        stab, orbit = stabilizer_and_orbit(lam, ctx)
        stab_oracle, orbit_oracle = stabilizer_and_orbit_oracle(lam, ctx)
        assert stab.element_set == stab_oracle
        assert [exact_values(f) for f in orbit] == orbit_oracle
        assert len(orbit) * stab.order == g.order
        if expected is not None:
            assert (stab.order, len(orbit)) == expected
        one = principal_character(ctx.group)
        stab1, orbit1 = stabilizer_and_orbit(one, ctx)
        assert stab1.order == g.order and orbit1 == [one]


def test_orbits_partition_irr(group_of):
    for ctx, _ in _orbit_inputs(group_of):
        seen = set()
        for lam in ctx.table.irreducibles:
            _, orbit = stabilizer_and_orbit(lam, ctx)
            block = frozenset(f.value_key() for f in orbit)
            for other in seen:
                assert other == block or not (other & block)
            seen.add(block)
        assert sum(len(b) for b in set(seen)) == len(ctx.table.irreducibles)


def test_clifford_correspondent_d8(table_of):
    t = table_of("dihedral8")
    g = t.group
    chi = degree2(t)
    rot = g.subgroup([g.element_index(g.generators[0])])
    ctx_y = InducedContext.build(g, rot)
    iota = next(l for l in ctx_y.table.irreducibles if kernel_of(l).order == 1)
    stab, _ = stabilizer_and_orbit(iota, ctx_y)
    ctx_stab = InducedContext.build(g, stab)
    xi = clifford_correspondent(chi, iota, ctx_y, ctx_stab)
    assert xi == iota  # stabilizer is the C4 itself
    assert induce(xi, ctx_stab) == chi
    assert xi.values[0].as_integer() * (g.order // stab.order) == chi.values[0].as_integer()


def test_clifford_correspondent_invariant_case(table_of):
    t = table_of("dihedral8")
    g = t.group
    chi = degree2(t)
    full = g.full_subgroup()
    ctx_full = InducedContext.build(g, full)
    xi = clifford_correspondent(chi, chi, ctx_full, ctx_full)
    assert xi == chi


def test_irr_lying_over(table_of):
    t = table_of("dihedral8")
    g = t.group
    chi = degree2(t)
    center = center_of(chi)
    ctx = InducedContext.build(g, center)
    phi_triv = ctx.table.irreducibles[0]
    over_trivial = irr_lying_over(t, ctx, phi_triv)
    assert over_trivial == [0, 1, 2, 3]
    phi_faithful = next(l for l in ctx.table.irreducibles if kernel_of(l).order == 1)
    assert irr_lying_over(t, ctx, phi_faithful) == [4]


def test_linear_twist_preserves_irreducibility(table_of):
    for gid in ("dihedral8", "sl23", "heisenberg3"):
        t = table_of(gid)
        for lam in linear_characters(t):
            for chi in t.irreducibles:
                twisted = chi * lam
                assert inner_product(twisted, twisted, characters=True) == 1


def test_promotion_memo_is_shared_across_threads(group_of):
    import threading

    g = group_of("extraspecial27_exp9")
    seen = []

    def worker():
        ctx = InducedContext.build(g, g.subgroup([1, 2]))
        seen.append((id(ctx.group), id(ctx.table)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(seen)) == 1  # one computation per element set


def test_context_rejects_a_set_that_is_not_a_subgroup():
    g = catalog.parse_group(catalog.spec_for("dihedral8").generators)
    x = next(i for i in range(g.order) if g.element_order(i) == 4)
    with pytest.raises(NotASubgroup):
        InducedContext.build(g, [0, x])
    assert g._promotions == {}


@pytest.mark.parametrize("indices", [[0, -1], [0, 11]])
def test_context_rejects_indices_outside_the_group(indices):
    """-1 and |G| + 3 are no element indices of dihedral8: both are refused
    before anything is promoted or cached."""
    g = catalog.parse_group(catalog.spec_for("dihedral8").generators)
    with pytest.raises(NotASubgroup, match=r"\[0, 8\)"):
        InducedContext.build(g, indices)
    assert g._promotions == {}


def test_context_refuses_a_second_closure_of_a_promoted_subgroup():
    """Once a subgroup is promoted, a context built with another Group of the
    same elements would mix class functions of two groups: it is refused."""
    g = catalog.parse_group(catalog.spec_for("dihedral8").generators)
    sub = g.subgroup([next(i for i in range(g.order) if g.element_order(i) == 4)])
    ctx = InducedContext.build(g, sub)
    again = group_closure([g.element(i) for i in sub.generators()])
    assert again is not ctx.group and again.order == ctx.group.order
    with pytest.raises(GroupMismatch, match="promoted"):
        InducedContext.build(g, sub, subgroup_group=again)
    assert InducedContext.build(g, sub, subgroup_group=ctx.group).group is ctx.group


@pytest.mark.parametrize("other", ["(1 2)(3 4)\n(1 3)(2 4)", "(1 2 4 3)"])
def test_context_refuses_a_given_group_with_other_elements(other):
    """The rotations of dihedral8 are elements [0, 1, 3, 6]; a given group of
    order 4 with other elements of the parent, or with elements outside it,
    is refused before anything is cached."""
    g = catalog.parse_group(catalog.spec_for("dihedral8").generators)
    rotations = g.subgroup([g.element_index(perm.parse_permutation("(1 2 3 4)"))])
    assert rotations.element_indices == (0, 1, 3, 6)
    x = group_closure(parse_generators(other)[0])
    assert x.order == 4
    with pytest.raises(GroupMismatch):
        InducedContext.build(g, rotations, subgroup_group=x)
    assert g._promotions == {}


def test_repeated_indices_count_once():
    g = catalog.parse_group(catalog.spec_for("dihedral8").generators)
    assert Subgroup(g, [0, 0]).order == 1
    ctx = InducedContext.build(g, [0, 0, 0])
    assert ctx.subgroup.order == ctx.group.order == 1


def _assert_promotions_match_the_reference(contexts):
    for ctx in contexts:
        ref, to_parent = promotion_reference(ctx.parent, ctx.subgroup)
        h = ctx.group
        assert np.array_equal(h.images, ref.images)
        assert np.array_equal(ctx.to_parent, to_parent)
        assert [x.to_text() for x in h.generators] == [x.to_text() for x in ref.generators]
        assert np.array_equal(h.class_of, ref.class_of)
        assert np.array_equal(h.class_reps, ref.class_reps)
        order, tensor = ctx.table.coefficient_tensor()
        ref_order, ref_tensor = dixon_table(ref).coefficient_tensor()
        assert order == ref_order and np.array_equal(tensor, ref_tensor)


def _refuse_group_closure(*args, **kwargs):
    raise AssertionError("group_closure called")


def test_catalog_promotions_match_the_reference(monkeypatch):
    """Every subgroup a catalog suite promotes is the group the earlier
    promotion (a fresh closure of its generators) made, element for element,
    class for class and row for row, and no promotion calls group_closure."""
    groups = [(gid, catalog.parse_group(catalog.spec_for(gid).generators)) for gid in catalog.builtin_ids()]
    promoted, build = [], InducedContext.build.__func__

    def recording_build(cls, parent, subgroup, subgroup_group=None):
        if not isinstance(subgroup, Subgroup):
            subgroup = Subgroup(parent, subgroup)
        fresh = subgroup_group is None and subgroup.element_set not in parent._promotions
        ctx = build(cls, parent, subgroup, subgroup_group)
        if fresh and ctx.group is not parent:
            promoted.append(ctx)
        return ctx

    monkeypatch.setattr(InducedContext, "build", classmethod(recording_build))
    monkeypatch.setattr(perm, "group_closure", _refuse_group_closure)
    run_suite(groups, STATEMENTS)
    assert len(promoted) > 100
    _assert_promotions_match_the_reference(promoted)


def test_lattice_promotions_of_the_order_2187_product_match_the_reference(group_of, monkeypatch):
    g = direct_product(group_of("wreath3"), group_of("heisenberg3"))
    members = normal_lattice(g, dixon_table(g)).members
    monkeypatch.setattr(perm, "group_closure", _refuse_group_closure)
    contexts = [InducedContext.build(g, member) for member in members]
    assert len(contexts) == 284
    _assert_promotions_match_the_reference([ctx for ctx in contexts if ctx.group is not g])


def test_a_promoted_center_is_closed_once(monkeypatch):
    """center_of closes the element set; the context and every later context
    of that set reuse that one closure, generators included."""
    g = catalog.parse_group(catalog.spec_for("heisenberg3").generators)
    table = dixon_table(g)
    chi = next(chi for chi, d in zip(table.irreducibles, table.degrees) if d == 3)
    calls, closure = [], Group._closure_indices

    def counting(self, seed):
        calls.append(self)
        return closure(self, seed)

    monkeypatch.setattr(Group, "_closure_indices", counting)
    center = center_of(chi)
    ctx = InducedContext.build(g, center)
    assert ctx.subgroup.generators() and len(calls) == 1
    again = InducedContext.build(g, list(center.element_indices))
    assert again.subgroup.generators() == ctx.subgroup.generators() and len(calls) == 1


def test_building_a_context_builds_no_table():
    g = catalog.parse_group(catalog.spec_for("heisenberg3").generators)
    center = g.subgroup([next(i for i in range(1, g.order) if g.class_sizes[g.class_of[i]] == 1)])
    ctx = InducedContext.build(g, center)
    assert ctx.group._character_table is None
    assert g._character_table is None
    table = ctx.table
    assert ctx.group._character_table is table
    assert InducedContext.build(g, center).table is table


_SHARED = ("class_of", "class_reps", "class_sizes", "inverses", "_orders")


@settings(max_examples=30, deadline=None)
@given(gens=generator_sets())
def test_promotions_with_one_presentation_share_classes_and_table(gens):
    """Every cyclic subgroup and every lattice member of a random permutation
    group: a twin shares the first group's class arrays, orders, inverses and
    exponent, and every promoted subgroup has the class arrays and tensor of
    a fresh closure of its generators and of a table built afresh."""
    g = group_closure(gens)
    subgroups = [g.subgroup([x]) for x in range(g.order)] + list(normal_lattice(g, dixon_table(g)).members)
    contexts = [InducedContext.build(g, sub) for sub in subgroups]
    for ctx in contexts:
        h = ctx.group
        if h is g:
            continue
        first = h._twin_of
        if first is not None:
            assert first._twin_of is None and first.images.shape == h.images.shape
            assert all(getattr(h, name) is getattr(first, name) for name in _SHARED)
            assert h.exponent == first.exponent and h._gen_indices == first._gen_indices
        ref, to_parent = promotion_reference(g, ctx.subgroup)
        assert np.array_equal(h.images, ref.images) and np.array_equal(ctx.to_parent, to_parent)
        assert all(np.array_equal(getattr(h, name), getattr(ref, name)) for name in _SHARED)
        assert h.exponent == ref.exponent
        order, tensor = ctx.table.coefficient_tensor()
        for table in (dixon_table(ref), dixon_table(h, use_cache=False)):
            assert table.coefficient_tensor()[0] == order
            assert np.array_equal(table.coefficient_tensor()[1], tensor)


def _klein_and_cyclic_contexts():
    g = catalog.parse_group(catalog.spec_for("dihedral8").generators)
    members = normal_lattice(g, dixon_table(g)).members
    contexts = [InducedContext.build(g, m) for m in members if m.order == 4]
    cyclic = [ctx for ctx in contexts if ctx.group.num_classes == 4 and len(ctx.subgroup.generators()) == 1]
    klein = [ctx for ctx in contexts if len(ctx.subgroup.generators()) == 2]
    assert len(cyclic) == 1 and len(klein) == 2
    return g, cyclic[0], klein


def test_cyclic_and_klein_subgroups_of_dihedral8_share_nothing():
    """C4 and the two Klein four-groups of D8: C4 is presented on one
    generator and the Klein groups on two, so C4 gets its own key and shares
    no array or table with them; the second Klein group is the first's twin."""
    g, cyclic, (first, second) = _klein_and_cyclic_contexts()
    keys = {id(group): key for key, group in g._presentations.items()}
    assert keys[id(cyclic.group)] != keys[id(first.group)] and id(second.group) not in keys
    assert cyclic.group._twin_of is None and first.group._twin_of is None
    assert second.group._twin_of is first.group
    for klein in (first, second):
        assert all(getattr(cyclic.group, name) is not getattr(klein.group, name) for name in _SHARED)
        assert cyclic.table.coefficient_tensor()[1] is not klein.table.coefficient_tensor()[1]
    assert second.table.coefficient_tensor()[1] is first.table.coefficient_tensor()[1]


def test_a_twin_renders_its_own_class_representatives():
    _, _, (first, second) = _klein_and_cyclic_contexts()
    assert second.group._twin_of is first.group
    texts = []
    for ctx in (second, first):
        h = ctx.group
        reps = [c["representative"] for c in ctx.table.to_json()["classes"]]
        assert reps == [h.element(r).to_text() for r in h.class_reps.tolist()]
        texts.append(reps)
    assert texts[0] != texts[1]


@pytest.mark.parametrize("gid", ["dihedral8", "sl23", "heisenberg3"])
def test_context_embedding_invariants(group_of, gid):
    g = group_of(gid)
    rng = random.Random(19)
    subgroups = [g.subgroup([rng.randrange(g.order)]) for _ in range(4)]
    subgroups += list(normal_lattice(g, dixon_table(g)).members)
    for sub in subgroups:
        ctx = InducedContext.build(g, sub)
        h = ctx.group
        assert np.array_equal(ctx.from_parent[ctx.to_parent], np.arange(h.order))
        inside = np.zeros(g.order, dtype=bool)
        inside[list(sub.element_indices)] = True
        assert (ctx.from_parent[~inside] == -1).all()
        assert (ctx.from_parent[inside] >= 0).all()
        assert np.array_equal(ctx.fusion, g.class_of[ctx.to_parent[h.class_reps]])
        for c, rep in enumerate(h.class_reps.tolist()):
            x = g.element_index(h.element(rep))
            assert ctx.fusion[c] == g.class_of[x] and ctx.to_parent[rep] == x


# -- properties over random subgroups of S_n, n <= 6 ---------------------------


@settings(max_examples=60, deadline=None)
@given(gens=generator_sets())
def test_gram_decompositions_match_the_session_products(gens):
    """decompose (one exact Gram against the table) agrees with the modular
    product tensor of the statement checks, pair by pair."""
    g = group_closure(gens)
    table = dixon_table(g)
    products = GroupSession(g, "random").products
    pairs = zip(*(x.tolist() for x in np.triu_indices(table.size)))
    for (i, j), row in zip(pairs, products, strict=True):
        dec = decompose(table.irreducibles[i] * table.irreducibles[j], table)
        assert dec.constituents == tuple((t, int(m)) for t, m in enumerate(row) if m)


def _lying_over_reference(table, ctx, phi):
    return [
        i for i, chi in enumerate(table.irreducibles)
        if inner_product(restrict(chi, ctx), phi, characters=True) != 0
    ]


@settings(max_examples=60, deadline=None)
@given(gens=generator_sets())
def test_lying_over_and_lattice_match_their_references(gens):
    """irr_lying_over (one Gram on the restricted table) agrees with one
    inner product per irreducible, for every normal subgroup and each of its
    irreducibles; the normal lattice agrees with the brute-force oracle."""
    g = group_closure(gens)
    table = dixon_table(g)
    lattice = normal_lattice(g, table)
    for member in lattice.members:
        ctx = InducedContext.build(g, member)
        for phi in ctx.table.irreducibles:
            assert irr_lying_over(table, ctx, phi) == _lying_over_reference(table, ctx, phi)
    if g.order <= 120:
        assert set(class_sets(lattice.masks)) == normal_lattice_oracle(g)
