import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charprod import catalog
from charprod.chartab import class_constants
from charprod.errors import CharprodError, ClosureCapExceeded, EmptyGeneratorSet, ParseError
from charprod.perm import (
    Group,
    Permutation,
    direct_product,
    group_closure,
    orbit_labels,
    parse_generators,
    parse_permutation,
)
from charprod.structure import normal_lattice

from oracles import (
    base_oracle,
    class_constants_oracle,
    closure_oracle,
    closure_reference,
    compose,
    conjugacy_oracle,
    generator_sets,
    inverse,
    level_closure_reference,
    orbit_labels_oracle,
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


def test_non_decimal_digits_are_a_parse_error():
    """Superscripts and circled digits are digits to str.isdigit but not to
    int(): the parser reads decimal digits only, in any script."""
    for text in ("(1 ²)", "(3 ①)"):
        with pytest.raises(ParseError, match=r"line 1, column 4"):
            parse_generators(text)
    assert parse_generators("(١ ２)\n(１ 3)")[0] == parse_generators("(1 2)\n(1 3)")[0]


# digit runs of at most two characters, each after a token that is no digit
_SEPARATORS = st.sampled_from(["(", ")", " ", "\t", "\n", "#", "degree", "="])
_DIGIT_RUNS = st.text(st.sampled_from("0123456789²①٣１"), max_size=2)


@settings(max_examples=250, deadline=None)
@given(st.lists(st.tuples(_SEPARATORS, _DIGIT_RUNS), max_size=12))
def test_parse_generators_returns_generators_or_a_charprod_error(pieces):
    """Text of cycle notation, comments and degree headers parses to a list
    of generators or fails with a CharprodError, never another exception."""
    text = "".join(sep + digits for sep, digits in pieces)
    try:
        gens, degree = parse_generators(text)
    except CharprodError:
        return
    assert gens and all(g.degree == degree for g in gens)


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
    _assert_classes_match(g)


def test_identity_only_generators():
    g = group_closure([Permutation.identity(4), Permutation.identity(4)])
    assert g.order == 1


def test_closure_cap(monkeypatch):
    gens, _ = parse_generators("(1 2 3 4 5 6 7)\n(1 2)")
    monkeypatch.setenv("CHARPROD_CLOSURE_CAP", "100")
    with pytest.raises(ClosureCapExceeded):
        group_closure(gens)


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
        assert g.class_sizes.sum() == g.order
        for j, size in enumerate(g.class_sizes.tolist()):
            members = g.class_members(j)
            assert g.order % size == 0 and len(members) == size
            for s in g._gen_indices:
                assert set(g.conjugates(members, s).tolist()) == set(members.tolist())
        assert g.class_members(0).tolist() == [0]


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
        if g.class_sizes[g.class_of[i]] == 1
    )
    sub = g.subgroup([central])
    assert sub.order == 2 and sub.is_normal


def test_inverse_class(group_of):
    c4 = group_closure([parse_permutation("(1 2 3 4)")])
    for g in (c4, group_of("dihedral8"), group_of("heisenberg3")):
        inverse_class = g.inverse_class()
        assert not inverse_class.flags.writeable
        for j in range(g.num_classes):
            assert set(g.class_of[g.inverses[g.class_members(j)]].tolist()) == {inverse_class[j]}
    j = c4.class_of[c4.element_index(parse_permutation("(1 2 3 4)"))]
    assert c4.element(c4.class_reps[c4.inverse_class()[j]]) == parse_permutation("(1 4 3 2)")


def test_p_group_center_nontrivial(group_of):
    for gid in ("dihedral8", "quaternion16", "heisenberg3", "wreath3"):
        g = group_of(gid)
        p = g.p_group_prime()
        singletons = int((g.class_sizes == 1).sum())
        assert singletons >= p


def test_derived_subgroup_is_generated_by_all_commutators(monkeypatch):
    """G' on every catalog group, built afresh, is the subgroup generated by
    the commutators of all pairs of elements; an abelian group gets the
    trivial subgroup with no product of elements taken."""
    calls, real_mul = [], Group.mul

    def counted(self, i, j):
        calls.append((i, j))
        return real_mul(self, i, j)

    monkeypatch.setattr(Group, "mul", counted)
    for gid in catalog.builtin_ids():
        g = catalog.parse_group(catalog.spec_for(gid).generators)
        calls.clear()
        derived = g.derived_subgroup()
        a, b = np.divmod(np.arange(g.order * g.order), g.order)
        commutators = g.products(g.products(g.inverses[a], g.inverses[b]), g.products(a, b))
        assert derived.element_set == g.subgroup(sorted(set(commutators.tolist()))).element_set
        assert (not calls) == (g.num_classes == g.order)


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


def _assert_arithmetic_matches(g, elements, pairs):
    """mul, products and conjugates against Permutation arithmetic
    on the reference element list."""
    index = {p: i for i, p in enumerate(elements)}
    a, b = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    assert g.products(a, b).tolist() == [index[compose(elements[i], elements[j])] for i, j in pairs]
    assert g.conjugates(a, b).tolist() == [
        index[compose(compose(elements[j], elements[i]), inverse(elements[j]))] for i, j in pairs
    ]
    for i, j in pairs:
        assert g.mul(i, j) == index[compose(elements[i], elements[j])]
        assert g.element_order(i) == order(elements[i])


def _assert_classes_match(g):
    """class_members, class_reps and class_sizes against the partition by
    conjugation with every element."""
    classes = conjugacy_oracle(g)
    assert [tuple(g.class_members(j).tolist()) for j in range(g.num_classes)] == classes
    assert g.class_reps.tolist() == [c[0] for c in classes]
    assert g.class_sizes.tolist() == [len(c) for c in classes]
    assert g.class_members([0, g.num_classes - 1]).tolist() == sorted({0, *classes[-1]})


def _point_maps(n):
    """Lists of maps on range(n): random permutations and identities."""
    return st.lists(st.one_of(st.permutations(range(n)), st.just(list(range(n)))), max_size=4)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_orbit_labels_match_depth_first_search(data):
    n = data.draw(st.integers(1, 12))
    perms = data.draw(_point_maps(n))
    label, least = orbit_labels(np.array(perms, dtype=np.intp).reshape(len(perms), n))
    assert (label.tolist(), least.tolist()) == orbit_labels_oracle(n, perms)


@pytest.mark.parametrize("perms", [np.zeros((0, 5), dtype=np.intp), np.array([[0]]), np.tile(np.arange(4), (3, 1))])
def test_orbit_labels_of_trivial_stacks(perms):
    """No maps, one point, or only identities: every point is its own orbit."""
    n = perms.shape[1]
    label, least = orbit_labels(perms)
    assert label.tolist() == least.tolist() == list(range(n))


def _transpositions(degree, transpositions):
    text = f"degree={degree}\n" + "".join(f"({a} {b})\n" for a, b in transpositions)
    return parse_generators(text)[0]


@pytest.mark.parametrize("degree, transpositions", [
    (60, [(2 * t + 1, 2 * t + 2) for t in range(11)]),
    (64, [(t + 1, t + 17) for t in range(11)]),
])
def test_keys_do_not_wrap_on_a_long_base(degree, transpositions):
    """11 disjoint transpositions: base length 11 and degree^11 > 2^63, so
    the base images as one base-``degree`` number would not fit in int64.
    At degree 64 a number wrapped modulo 2^64 would confuse elements that
    differ only in the first transposition, (1 17); the rank tables keep
    every index below |G| * degree."""
    gens = _transpositions(degree, transpositions)
    g = group_closure(gens)
    assert g.order == 2048 and len(g.base) == 11 and degree ** 11 > 2 ** 63
    elements = closure_reference(gens)
    assert [tuple(row) for row in g.images.tolist()] == [p.images for p in elements]
    assert [g.element_index(p) for p in elements] == list(range(g.order))
    rng = random.Random(11)
    pairs = [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(200)]
    _assert_arithmetic_matches(g, elements, pairs)
    with pytest.raises(KeyError):
        g.element_index(parse_permutation("(1 3)", degree))


@settings(max_examples=40, deadline=None)
@given(gens=generator_sets(), data=st.data())
def test_group_core_matches_permutation_arithmetic(gens, data):
    g = group_closure(gens)
    elements = closure_reference(gens)
    assert [tuple(row) for row in g.images.tolist()] == [p.images for p in elements]
    assert [g.element_index(p) for p in elements] == list(range(g.order))
    identity = Permutation.identity(g.degree)
    assert all(compose(p, elements[int(j)]) == identity for p, j in zip(elements, g.inverses))
    index = st.integers(0, g.order - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=25))
    _assert_arithmetic_matches(g, elements, pairs)
    _assert_classes_match(g)
    assert np.stack([class_constants(g, i) for i in range(g.num_classes)]).tolist() == class_constants_oracle(g)


@settings(max_examples=60, deadline=None)
@given(gens=generator_sets(), data=st.data())
def test_subgroup_closure_lists_the_elements_in_group_closure_order(gens, data):
    """The subgroup closure of any seed lists its elements as the breadth-first
    closure of the generators it keeps does, keeps each generator only when
    the ones before it do not reach it, and gives the products of its elements
    by those generators as its presentation."""
    g = group_closure(gens)
    seed = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    elements, kept, presentation = g._closure_indices(seed)
    assert kept == sorted(kept) and set(kept) <= set(seed)
    assert np.array_equal(presentation, g.products(elements[:, None], kept).reshape(len(elements), len(kept)))
    generators = [g.element(i) for i in kept] or [Permutation.identity(g.degree)]
    assert [g.element(i) for i in elements.tolist()] == closure_reference(generators)
    assert set(elements.tolist()) == set(g.subgroup(seed).element_indices)
    for i, s in enumerate(kept):
        assert s not in g._closure_indices(kept[:i])[0]


def _assert_closure_matches_the_level_reference(g, seed):
    got, want = g._closure_indices(seed), level_closure_reference(g, seed)
    assert got[1] == want[1]
    for array, expected in ((got[0], want[0]), (got[2], want[2])):
        assert array.dtype == expected.dtype and array.shape == expected.shape
        assert np.array_equal(array, expected)


@settings(max_examples=80, deadline=None)
@given(gens=generator_sets(), data=st.data())
def test_queue_closure_equals_the_level_closure(gens, data):
    """The queue closure returns the elements, kept generators and
    presentation of the level-by-level closure, array for array, for seeds
    of up to 12 indices with repeats, the empty seed and the identity."""
    g = group_closure(gens)
    seed = data.draw(st.lists(st.integers(0, g.order - 1), max_size=12))
    for s in (seed, [], [0]):
        _assert_closure_matches_the_level_reference(g, s)


def test_queue_closure_grows_the_whole_subgroup_before_the_next_seed_element():
    """In A4, <(1 2 3)> has order 3 and <(1 2 3), (2 3 4)> is all of A4.  A
    frontier grown from one element of the coset H s misses (1 2 4), and the
    scan would keep it as a third generator."""
    g = group_closure([parse_permutation(t, 4) for t in ("(1 4)(2 3)", "(1 4 3)", "(1 2 3)")])
    seed = [g.element_index(parse_permutation(t, 4)) for t in ("(1 2 3)", "(2 3 4)", "(1 4 2)", "(1 2 4)")]
    assert g._closure_indices(seed)[1] == sorted(seed[:2])
    _assert_closure_matches_the_level_reference(g, seed)


@pytest.mark.parametrize("gid", catalog.builtin_ids())
def test_queue_closure_promotes_every_proper_normal_subgroup_like_the_level_closure(gid, group_of, table_of):
    """Seeds that are whole subgroups, as in promotion: every proper lattice
    member of every catalog group, its element indices ascending."""
    g = group_of(gid)
    for member in normal_lattice(g, table_of(gid)).members[:-1]:
        _assert_closure_matches_the_level_reference(g, member.element_indices)


def test_queue_closure_promotes_the_order_2187_lattice_like_the_level_closure(product_2187):
    g, t = product_2187
    members = normal_lattice(g, t).members
    assert len(members) == 284
    for member in members:
        _assert_closure_matches_the_level_reference(g, member.element_indices)


def _prefix_ranks(g, images):
    """Rank of the base-image prefix of one image row at every base point."""
    rank, ranks = 0, []
    for point, table in zip(g.base, g._tables):
        rank = int(table[rank, images[point]])
        ranks.append(rank)
    return ranks


def test_rank_tables_miss_at_the_first_unmatched_base_point():
    """(1 2), (3 4), ..., (21 22) at degree 60, base 1, 3, ..., 21: (3 5)
    misses at the second base point and stays missed; (2 4) has the base
    images of the identity, so only the full row tells it apart."""
    g = group_closure(_transpositions(60, [(2 * t + 1, 2 * t + 2) for t in range(11)]))
    assert g.base == list(range(0, 22, 2))
    misses = parse_permutation("(3 5)", 60)
    ranks = _prefix_ranks(g, misses.images)
    assert ranks[0] >= 0 and ranks[1:] == [-1] * 10
    agrees = parse_permutation("(2 4)", 60)
    identity = Permutation.identity(60)
    assert _prefix_ranks(g, agrees.images) == _prefix_ranks(g, identity.images)
    assert min(_prefix_ranks(g, identity.images)) >= 0
    assert g.locate(np.array(agrees.images)[g.base]) == g.element_index(identity) == 0
    for perm in (misses, agrees):
        with pytest.raises(KeyError):
            g.element_index(perm)
        with pytest.raises(KeyError):
            g.indices_of([identity.images, perm.images])


def test_rank_tables_fit_below_the_images(group_of, product_2187):
    """One table of (prefixes + 1) rows per base point, the last row a miss:
    fewer than (|G| + |base|) * degree entries, on the base the refinement
    by distinct base images picks."""
    groups = [group_of(gid) for gid in catalog.builtin_ids()] + [product_2187[0]]
    for g in groups:
        assert g.base == base_oracle(g)
        assert len(g._tables) == len(g.base)
        assert all(table.shape[1] == g.degree and (table[-1] == -1).all() for table in g._tables)
        assert sum(table.size for table in g._tables) < (g.order + len(g.base)) * g.degree


@settings(max_examples=60, deadline=None)
@given(gens=generator_sets(), data=st.data())
def test_element_index_raises_exactly_for_non_members(gens, data):
    g = group_closure(gens)
    elements = closure_reference(gens)
    members = set(elements)
    drawn = data.draw(st.lists(st.permutations(range(g.degree)), min_size=1, max_size=8))
    perms = [Permutation(images) for images in drawn] + elements[-2:]
    for perm in perms:
        if perm in members:
            assert g.element(g.element_index(perm)) == perm
        else:
            with pytest.raises(KeyError):
                g.element_index(perm)
    if all(perm in members for perm in perms):
        assert [g.element(i) for i in g.indices_of([p.images for p in perms])] == perms
    else:
        with pytest.raises(KeyError):
            g.indices_of([p.images for p in perms])
