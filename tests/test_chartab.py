import math

import numpy as np
import pytest

from charprod.charops import ClassFunction
from charprod.chartab import (
    CharacterTable,
    _lift_degree,
    _lift_values,
    _orthogonality_defect,
    _split_eigenspaces,
    _value_lift,
    class_constants,
    dixon_table,
    verify_orthogonality,
)
from charprod.errors import CharprodError, LiftInconsistent
from charprod.modular import find_prime, inv_mod, nth_root_of_unity
from charprod.perm import Permutation, group_closure, parse_generators

from oracles import brute_force_table, canonical_key, exact, root_of_unity

SMALL_IDS = [
    "cyclic2", "cyclic3", "cyclic4", "cyclic8", "cyclic9", "cyclic16",
    "elemab_2_2", "elemab_2_3", "elemab_3_2",
    "dihedral8", "dihedral16", "quaternion8", "quaternion16",
    "semidihedral16", "modular16", "wreath2", "sl23",
]


def test_class_constants_trivial_and_c2():
    trivial = group_closure([Permutation.identity(1)])
    assert class_constants(trivial, 0).tolist() == [[1]]

    c2 = group_closure([parse_permutation_c2()])
    assert class_constants(c2, 0).tolist() == [[1, 0], [0, 1]]
    assert class_constants(c2, 1).tolist() == [[0, 1], [1, 0]]


def parse_permutation_c2():
    gens, _ = parse_generators("(1 2)")
    return gens[0]


def test_class_constants_weight_identity(group_of):
    g = group_of("dihedral8")
    cc = np.stack([class_constants(g, i) for i in range(g.num_classes)])
    sizes = np.array([c.size for c in g.classes])
    for i in range(g.num_classes):
        for j in range(g.num_classes):
            assert int(cc[i, j] @ sizes) == g.classes[i].size * g.classes[j].size
            assert np.array_equal(cc[i, j], cc[j, i])


def test_table_beyond_340_classes():
    # elementary abelian 7^3, one 7-cycle per generator line
    gens = "".join("(" + " ".join(str(7 * i + j) for j in range(1, 8)) + ")\n" for i in range(3))
    t = dixon_table(group_closure(parse_generators(gens)[0]))
    assert t.size == 343 and t.degrees == (1,) * 343
    assert verify_orthogonality(t)


def test_forced_large_prime_raises_before_any_product(group_of):
    g = group_of("heisenberg3")
    q = find_prime(g.exponent, 2 * math.isqrt(g.order - 1) + 2)
    lift = _value_lift(g, q, nth_root_of_unity(q, g.exponent))
    omega = np.ones(g.num_classes, dtype=np.int64)
    big = 2**61 - 1
    for call in (
        lambda: _split_eigenspaces(g, big),
        lambda: _lift_degree(omega, g, big, lift),
        lambda: _lift_values(omega, 1, big, lift),
    ):
        with pytest.raises(CharprodError, match="64 bits"):
            call()


def test_c3_table():
    g = group_closure(parse_generators("(1 2 3)")[0])
    t = dixon_table(g)
    assert t.degrees == (1, 1, 1)
    zeta = root_of_unity(3, 1)
    values = {tuple(chi.values) for chi in t.irreducibles}
    gen_class = g.class_of[1]
    for chi in t.irreducibles:
        v = chi.values[gen_class]
        assert v in (zeta, zeta * zeta, root_of_unity(3, 0).embed(3))


def test_d8_table(table_of, group_of):
    t = table_of("dihedral8")
    g = group_of("dihedral8")
    assert t.degrees == (1, 1, 1, 1, 2)
    chi = t.irreducibles[4]
    central = next(j for j in range(1, g.num_classes) if g.classes[j].size == 1)
    for j, v in enumerate(chi.values):
        if j == 0:
            assert v.as_integer() == 2
        elif j == central:
            assert v.as_integer() == -2
        else:
            assert v == 0


def test_sl23_table(table_of):
    assert table_of("sl23").degrees == (1, 1, 1, 2, 2, 2, 3)


def test_verify_orthogonality_and_perturbation(table_of):
    t = table_of("elemab_2_2")
    assert verify_orthogonality(t)
    rows = [ClassFunction(t.group, list(chi.values)) for chi in t.irreducibles]
    bumped = list(rows[1].values)
    bumped[2] = exact(bumped[2]) + 1
    rows[1] = ClassFunction(t.group, bumped)
    assert not verify_orthogonality(CharacterTable(t.group, rows))
    assert set(_orthogonality_defect(CharacterTable(t.group, rows))) == {"rows", "columns"}


@pytest.mark.parametrize("gid", ["dihedral8", "cyclic9", "heisenberg3"])
def test_corrupted_central_character_fails_the_lift(gid, group_of, table_of):
    g = group_of(gid)
    q = find_prime(g.exponent, 2 * math.isqrt(g.order - 1) + 2)
    lift = _value_lift(g, q, nth_root_of_unity(q, g.exponent))
    rows = set()
    for vec in _split_eigenspaces(g, q):
        omega = vec * inv_mod(int(vec[0]), q) % q
        degree = _lift_degree(omega, g, q, lift)
        rows.add(_lift_values(omega, degree, q, lift).tobytes())
        for j in range(1, g.num_classes):
            bad = omega.copy()
            bad[j] = (bad[j] + 1) % q
            with pytest.raises(LiftInconsistent):
                _lift_values(bad, degree, q, lift)
    assert rows == {chi.num.tobytes() for chi in table_of(gid).irreducibles}


@pytest.mark.parametrize("gid", SMALL_IDS + ["heisenberg3", "wreath3", "extraspecial27_exp9"])
def test_table_invariants(gid, table_of):
    t = table_of(gid)
    g = t.group
    assert len(t.irreducibles) == g.num_classes
    assert sum(d * d for d in t.degrees) == g.order
    for d in t.degrees:
        assert g.order % d == 0
    p = g.p_group_prime()
    if p is not None:
        for d in t.degrees:
            while d % p == 0:
                d //= p
            assert d == 1
    assert t.degrees[0] == 1
    assert all(v == root_of_unity(1, 0) for v in t.irreducibles[0].values)
    assert verify_orthogonality(t)


def test_determinism_same_group(group_of):
    g = group_of("sl23")
    a = dixon_table(g, use_cache=False)
    b = dixon_table(g, use_cache=False)
    assert [chi.value_key() for chi in a.irreducibles] == [chi.value_key() for chi in b.irreducibles]


def test_determinism_generator_order():
    one, _ = parse_generators("(1 2 3 4)\n(1 3)")
    two, _ = parse_generators("(1 3)\n(1 2 3 4)")
    ga, gb = group_closure(one), group_closure(two)
    ta, tb = dixon_table(ga), dixon_table(gb)
    assert ta.degrees == tb.degrees
    # class indices differ with the generator order; realign columns by the
    # underlying element sets before comparing the row multisets
    by_members = {
        frozenset(tuple(ga.images[i].tolist()) for i in c.members): j
        for j, c in enumerate(ga.classes)
    }
    realign = [by_members[frozenset(tuple(gb.images[i].tolist()) for i in c.members)]
               for c in gb.classes]
    rows_a = sorted(canonical_key(tuple(c.values)) for c in ta.irreducibles)
    rows_b = sorted(
        canonical_key(tuple(c.values[realign.index(j)] for j in range(len(realign))))
        for c in tb.irreducibles
    )
    assert rows_a == rows_b


@pytest.mark.parametrize("gid", [g for g in SMALL_IDS])
def test_brute_force_oracle_equivalence(gid, group_of, table_of):
    group = group_of(gid)
    if group.order > 24:
        pytest.skip("oracle pinned to |G| <= 24")
    t = table_of(gid)
    oracle_rows = {canonical_key(row) for row in brute_force_table(group)}
    engine_rows = {canonical_key(tuple(chi.values)) for chi in t.irreducibles}
    assert oracle_rows == engine_rows


def test_conjugate_index(table_of):
    t = table_of("sl23")
    for i, chi in enumerate(t.irreducibles):
        j = t.conjugate_index(i)
        assert t.irreducibles[j] == chi.conj()
    t8 = table_of("dihedral8")
    for i in range(len(t8.irreducibles)):
        assert t8.conjugate_index(i) == i  # all real characters


def test_table_renderings(table_of):
    t = table_of("dihedral8")
    text = t.to_text()
    assert len(text.splitlines()) == 2 + len(t.irreducibles)
    assert "sizes" in text and "orders" in text
    payload = t.to_json()
    assert payload["order"] == 8
    assert len(payload["irreducibles"]) == 5
    assert payload["irreducibles"][4]["degree"] == 2
