import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charprod.chartab import class_constants
from charprod.errors import ClosureCapExceeded, EmptyGeneratorSet, ParseError
from charprod.perm import (
    Permutation,
    direct_product,
    group_closure,
    parse_generators,
    parse_permutation,
)

from oracles import (
    class_constants_oracle,
    closure_oracle,
    closure_reference,
    compose,
    conjugacy_oracle,
    inverse,
    order,
    power,
)


def test_permutation_basics():
    p = parse_permutation("(1 2 3)(4 5)")
    assert p.images == (1, 2, 0, 4, 3)
    assert order(p) == 6
    assert compose(p, inverse(p)) == Permutation.identity(5)
    assert power(p, 0) == Permutation.identity(5)
    assert power(p, -1) == inverse(p)
    assert power(p, 7) == p
    assert p.to_text() == "(1 2 3)(4 5)"


def test_identity_parse():
    p = parse_permutation("()")
    assert p == Permutation.identity(1)
    assert p.to_text() == "()"


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_permutation("(1 2)(3")
    with pytest.raises(ParseError):
        parse_permutation("(1 2)(2 3)")
    with pytest.raises(ParseError):
        parse_permutation("(0 1)")
    with pytest.raises(ParseError):
        parse_permutation("1 2 3")


def test_parse_generators_header_and_comments():
    gens, degree = parse_generators("# a comment\ndegree=6\n(1 2)\n(3 4 5)\n")
    assert degree == 6
    assert all(g.degree == 6 for g in gens)
    with pytest.raises(ParseError):
        parse_generators("degree=4\n(1 5)")
    with pytest.raises(EmptyGeneratorSet):
        parse_generators("# nothing here\n")
    gens, degree = parse_generators("degree=3\n")
    assert degree == 3 and gens[0] == Permutation.identity(3)


def test_trivial_and_cyclic_closure():
    trivial = group_closure([Permutation.identity(1)])
    assert trivial.order == 1 and trivial.num_classes == 1

    c3 = group_closure([parse_permutation("(1 2 3)")])
    assert c3.order == 3 and c3.num_classes == 3 and c3.exponent == 3


def test_d8_closure_matches_oracle():
    gens, _ = parse_generators("(1 2 3 4)\n(1 3)")
    g = group_closure(gens)
    assert g.order == 8 and g.num_classes == 5
    assert set(map(tuple, g.images.tolist())) == {p.images for p in closure_oracle(gens)}
    assert [tuple(c.members) for c in g.classes] == conjugacy_oracle(g)


def test_identity_only_generators():
    g = group_closure([Permutation.identity(4), Permutation.identity(4)])
    assert g.order == 1


def test_closure_cap():
    gens, _ = parse_generators("(1 2 3 4 5 6 7)\n(1 2)")
    with pytest.raises(ClosureCapExceeded):
        group_closure(gens, cap=100)


def test_no_generators():
    with pytest.raises(EmptyGeneratorSet):
        group_closure([])


def test_closure_idempotence():
    gens, _ = parse_generators("(1 2 3 4)\n(1 3)")
    g = group_closure(gens)
    again = group_closure([g.element(i) for i in range(g.order)])
    assert set(map(tuple, again.images.tolist())) == set(map(tuple, g.images.tolist()))


def test_class_equation_and_conjugation_closure(group_of):
    for gid in ("dihedral8", "sl23", "heisenberg3", "modular16"):
        g = group_of(gid)
        assert sum(c.size for c in g.classes) == g.order
        for c in g.classes:
            assert g.order % c.size == 0
            for s in g._gen_indices:
                assert {g.conjugate(i, s) for i in c.members} == set(c.members)
        assert g.classes[0].members == (0,)


def test_subgroup_generated_fixed_point(group_of):
    g = group_of("dihedral8")
    rng = random.Random(7)
    for _ in range(10):
        seed = rng.sample(range(g.order), rng.randint(0, 3))
        sub = g.subgroup(seed)
        again = g.subgroup(sub.element_indices)
        assert again.element_set == sub.element_set


def test_subgroup_examples(group_of):
    g = group_of("dihedral8")
    assert g.subgroup([]).order == 1
    assert g.subgroup(range(g.order)).order == 8
    central = next(
        i for i in range(1, g.order)
        if g.classes[g.class_of[i]].size == 1
    )
    sub = g.subgroup([central])
    assert sub.order == 2 and sub.is_normal


def test_power_class(group_of):
    c4 = group_closure([parse_permutation("(1 2 3 4)")])
    j = c4.class_of[c4.element_index(parse_permutation("(1 2 3 4)"))]
    doubled = c4.power_class(j, 2)
    rep = c4.classes[doubled].representative
    assert c4.element(rep) == parse_permutation("(1 3)(2 4)")
    for g in (c4, group_of("dihedral8")):
        for cls_idx in range(g.num_classes):
            assert g.power_class(cls_idx, 0) == 0
            assert g.power_class(cls_idx, 1) == cls_idx
            second = g.classes[cls_idx].members[-1]
            assert g.class_of[g.power(second, 3)] == g.power_class(cls_idx, 3)


def test_p_group_center_nontrivial(group_of):
    for gid in ("dihedral8", "quaternion16", "heisenberg3", "wreath3"):
        g = group_of(gid)
        p = g.p_group_prime()
        singletons = sum(1 for c in g.classes if c.size == 1)
        assert singletons >= p


def test_p_group_detection(group_of):
    assert group_of("dihedral8").p_group_prime() == 2
    assert group_of("heisenberg5").p_group_prime() == 5
    assert group_of("sl23").p_group_prime() is None


def test_bfs_determinism():
    gens, _ = parse_generators("(1 2 3 4)\n(1 3)")
    a = group_closure(gens)
    b = group_closure(gens)
    assert (a.images == b.images).all()


def test_direct_product(group_of):
    g = direct_product(group_of("dihedral8"), group_of("cyclic3"))
    assert g.order == 24
    assert g.degree == group_of("dihedral8").degree + 3
    assert g.num_classes == 5 * 3


def test_closure_cap_env(monkeypatch):
    gens, _ = parse_generators("(1 2 3 4 5 6 7)\n(1 2)")
    monkeypatch.setenv("CHARPROD_CLOSURE_CAP", "50")
    with pytest.raises(ClosureCapExceeded):
        group_closure(gens)
    monkeypatch.setenv("CHARPROD_CLOSURE_CAP", "6000")
    assert group_closure(gens).order == 5040


def _assert_arithmetic_matches(g, elements, pairs, exponents):
    """mul, conjugate, power and their batched forms against Permutation
    arithmetic on the reference element list."""
    index = {p: i for i, p in enumerate(elements)}
    a, b = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    assert g.products(a, b).tolist() == [index[compose(elements[i], elements[j])] for i, j in pairs]
    assert g.conjugates(a, b).tolist() == [
        index[compose(compose(elements[j], elements[i]), inverse(elements[j]))] for i, j in pairs
    ]
    for (i, j), k in zip(pairs, exponents):
        assert g.mul(i, j) == index[compose(elements[i], elements[j])]
        assert g.conjugate(i, j) == index[compose(compose(elements[j], elements[i]), inverse(elements[j]))]
        assert g.power(i, k) == index[power(elements[i], k)]
        assert g.element_order(i) == order(elements[i])


@pytest.mark.parametrize("degree, transpositions", [
    (60, [(2 * t + 1, 2 * t + 2) for t in range(11)]),
    (64, [(t + 1, t + 17) for t in range(11)]),
])
def test_keys_do_not_wrap_on_a_long_base(degree, transpositions):
    """11 disjoint transpositions: base length 11 and degree^11 > 2^63.  At
    degree 64 a key wrapped modulo 2^64 would confuse elements that differ
    only in the first transposition, (1 17)."""
    text = f"degree={degree}\n" + "".join(f"({a} {b})\n" for a, b in transpositions)
    gens, _ = parse_generators(text)
    g = group_closure(gens)
    assert g.order == 2048 and len(g.base) == 11 and degree ** 11 > 2 ** 63
    elements = closure_reference(gens)
    assert [tuple(row) for row in g.images.tolist()] == [p.images for p in elements]
    assert [g.element_index(p) for p in elements] == list(range(g.order))
    rng = random.Random(11)
    pairs = [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(200)]
    _assert_arithmetic_matches(g, elements, pairs, [rng.randint(-3, 3) for _ in pairs])
    with pytest.raises(KeyError):
        g.element_index(parse_permutation("(1 3)", degree))


@st.composite
def _generator_sets(draw):
    n = draw(st.integers(1, 6))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return [Permutation(p) for p in perms]


@settings(max_examples=40, deadline=None)
@given(gens=_generator_sets(), data=st.data())
def test_group_core_matches_permutation_arithmetic(gens, data):
    g = group_closure(gens)
    elements = closure_reference(gens)
    assert [tuple(row) for row in g.images.tolist()] == [p.images for p in elements]
    assert [g.element_index(p) for p in elements] == list(range(g.order))
    identity = Permutation.identity(g.degree)
    assert all(compose(p, elements[int(j)]) == identity for p, j in zip(elements, g.inverses))
    index = st.integers(0, g.order - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=25))
    exponents = data.draw(st.lists(st.integers(-8, 8), min_size=len(pairs), max_size=len(pairs)))
    _assert_arithmetic_matches(g, elements, pairs, exponents)
    assert [c.members for c in g.classes] == conjugacy_oracle(g)
    assert np.stack([class_constants(g, i) for i in range(g.num_classes)]).tolist() == class_constants_oracle(g)
