import hashlib
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from charprod import catalog
from charprod.charops import principal_character
from charprod.chartab import (
    CharacterTable,
    _build_table,
    _central_spaces,
    _finish_table,
    _lift_degree,
    _lift_values,
    _linear_logs,
    _orthogonality_defect,
    _power_classes,
    _row_bound,
    _split_eigenspaces,
    _split_prime,
    _unit_generators,
    _value_lift,
    class_constants,
    dixon_table,
    quotient_table,
    verify_orthogonality,
)
from charprod.cyclotomic import _reduction_matrix, euler_phi, multiply
from charprod.errors import CharprodError, EigensplitStall, LiftInconsistent, NotAPGroup
from charprod.modular import find_prime, inv_mod, nth_root_of_unity, nullspace_mod
from charprod.perm import Permutation, direct_product, group_closure, parse_generators
from charprod.structure import QuotientMap, normal_lattice, quotient
from charprod.verify import STATEMENTS, run_suite

from oracles import (
    WREATH_C9_C3,
    brute_force_table,
    canonical_key,
    generator_sets,
    orthogonality_defect_reference,
    prime_ideal_short_vector,
    root_of_unity,
    row_sort_key,
    small_p_groups,
    split_in_index_order,
    unseeded_table,
    value_json_reference,
    value_text_reference,
)

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
    sizes = g.class_sizes
    for i in range(g.num_classes):
        for j in range(g.num_classes):
            assert int(cc[i, j] @ sizes) == sizes[i] * sizes[j]
            assert np.array_equal(cc[i, j], cc[j, i])


def _assert_rows_are_rows_of_the_full_matrix(group, i, rows):
    got = class_constants(group, i, rows)
    assert got.shape == (len(rows), group.num_classes)
    assert np.array_equal(got, class_constants(group, i)[rows])


@settings(max_examples=40, deadline=None)
@given(gens=generator_sets(), data=st.data())
def test_class_constant_rows_are_rows_of_the_class_matrix(gens, data):
    """The triple count gives the rows of the full class matrix, for any
    rows: repeated, unsorted or none."""
    g = group_closure(gens)
    i = data.draw(st.integers(0, g.num_classes - 1))
    rows = data.draw(st.lists(st.integers(0, g.num_classes - 1), max_size=2 * g.num_classes))
    _assert_rows_are_rows_of_the_full_matrix(g, i, rows)


@pytest.mark.parametrize("gid", catalog.builtin_ids())
def test_catalog_class_constant_rows_are_rows_of_the_class_matrix(gid, group_of):
    g = group_of(gid)
    rows = np.arange(g.num_classes)[::-1][::2]
    for i in range(g.num_classes):
        _assert_rows_are_rows_of_the_full_matrix(g, i, rows)


def test_table_beyond_340_classes():
    # elementary abelian 7^3, one 7-cycle per generator line
    gens = "".join("(" + " ".join(str(7 * i + j) for j in range(1, 8)) + ")\n" for i in range(3))
    t = dixon_table(group_closure(parse_generators(gens)[0]))
    assert t.size == 343 and t.degrees == (1,) * 343
    assert verify_orthogonality(t)


def test_forced_large_prime_raises_before_any_product(group_of, monkeypatch):
    g = group_of("heisenberg3")
    q = find_prime(g.exponent, 2 * math.isqrt(g.order - 1) + 2)
    lift = _value_lift(g, q, nth_root_of_unity(q, g.exponent))
    m = g.num_classes
    omega = np.ones(m, dtype=np.int64)
    big = 2**61 - 1

    def no_product(*args):
        raise AssertionError("a product ran before the bound was checked")

    monkeypatch.setattr(g, "products", no_product)
    for call in (
        lambda: _split_eigenspaces(g, big, np.zeros((0, m), dtype=np.int64)),
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
    central = next(j for j in range(1, g.num_classes) if g.class_sizes[j] == 1)
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
    order, tensor = t.coefficient_tensor()
    bumped = tensor.copy()
    bumped[1, 2, 0] += 1
    perturbed = CharacterTable(t.group, order, bumped)
    assert not verify_orthogonality(perturbed)
    assert set(_orthogonality_defect(perturbed)) == {"rows", "columns"}


@settings(max_examples=60, deadline=None)
@given(gid=st.sampled_from(["elemab_2_2", "dihedral8", "cyclic9", "sl23", "heisenberg3", "extraspecial27_exp9"]),
       data=st.data())
def test_perturbed_tables_have_the_reference_orthogonality_defect(gid, data, table_of):
    """One coefficient of a catalog table off by +-1 or by a multiple of
    2^20: the square table's rows fail, so both relations are reported, as
    the two-relation reference reports them."""
    t = table_of(gid)
    order, tensor = t.coefficient_tensor()
    cell = tuple(data.draw(st.integers(0, n - 1)) for n in tensor.shape)
    small = st.sampled_from([-1, 1])
    large = st.integers(-8, 8).filter(bool).map(lambda k: k * 2**20)
    bumped = tensor.copy()
    bumped[cell] += data.draw(st.one_of(small, large))
    perturbed = CharacterTable(t.group, order, bumped)
    defect = _orthogonality_defect(perturbed)
    assert set(defect) == {"rows", "columns"} and defect == orthogonality_defect_reference(perturbed)


@pytest.mark.parametrize("dropped", range(1, 11))
def test_a_table_missing_a_row_fails_only_the_column_relation(dropped, table_of):
    """heisenberg3 less one non-principal row: the rows left are still
    orthonormal, but the table is no longer square, so the columns must be
    computed, and they fail."""
    t = table_of("heisenberg3")
    order, tensor = t.coefficient_tensor()
    short = CharacterTable(t.group, order, np.delete(tensor, dropped, axis=0))
    defect = _orthogonality_defect(short)
    assert set(defect) == {"columns"} and defect == orthogonality_defect_reference(short)
    assert not verify_orthogonality(short)


@pytest.mark.parametrize("rows", [slice(None, -1), [*range(11), 10]], ids=["missing", "repeated"])
def test_finish_table_needs_one_row_per_class(rows, table_of):
    t = table_of("heisenberg3")
    tensor = t.coefficient_tensor()[1][rows]
    with pytest.raises(LiftInconsistent, match=f"^{len(tensor)} irreducibles for 11 classes$"):
        _finish_table(t.group, tensor)


# -- the row relation decided modulo one split prime ----------------------------------

MODULAR_IDS = ["dihedral8", "heisenberg3", "cyclic16", "heisenberg3_x_cyclic9", "order2187"]


@pytest.fixture(params=MODULAR_IDS)
def square_table(request, table_of, product_2187):
    return product_2187[1] if request.param == "order2187" else table_of(request.param)


@contextmanager
def _primes_taken():
    """The primes the row checks take inside the block, in the order taken."""
    from charprod import chartab

    real, taken = chartab._split_prime, []

    def recording(order, classes):
        prime = real(order, classes)
        taken.append(prime[0])
        return prime

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chartab, "_split_prime", recording)
        yield taken


@contextmanager
def _decided_at_one_prime():
    """Inside the block no row check may reach an exact ``gram``; yields the
    results of the row checks and the primes they took."""
    from charprod import chartab

    def refuse(*args):
        raise AssertionError("an exact gram in a row check")

    results, check = [], chartab._rows_hold_modulo_prime

    def recording(*args):
        results.append(check(*args))
        return results[-1]

    with _primes_taken() as primes, pytest.MonkeyPatch.context() as patch:
        patch.setattr(chartab, "gram", refuse)
        patch.setattr(chartab, "_rows_hold_modulo_prime", recording)
        yield results, primes


def _checked(table):
    """The orthogonality defect of ``table`` and the primes its modular check
    took, in the order it took them."""
    with _primes_taken() as primes:
        defect = _orthogonality_defect(table)
    return defect, primes


def _prime(table):
    """(Q, z): the prime of the check and its embedding zeta -> z."""
    order, _ = table.coefficient_tensor()
    return _split_prime(order, table.group.num_classes)


def _bumped(table, cell, delta):
    order, tensor = table.coefficient_tensor()
    bumped = tensor.copy()
    bumped[cell] += delta
    return CharacterTable(table.group, order, bumped)


def test_clean_square_tables_are_decided_modulo_primes_alone(square_table, monkeypatch):
    """A clean square table is certified by its image at one prime: no exact
    ``gram``, and one product, at one embedding."""
    from charprod import chartab

    products, product = [], chartab._product

    def counted(*args):
        products.append(args)
        return product(*args)

    monkeypatch.setattr(chartab, "_product", counted)
    with _decided_at_one_prime() as (results, primes):
        defect = _orthogonality_defect(square_table)
    assert defect == {} and results == [True] and primes == [_prime(square_table)[0]]
    assert len(products) == 1


@pytest.mark.parametrize("delta", ["+1", "-1", "+Q", "-Q"])
def test_a_degree_off_by_one_or_the_first_prime_fails(delta, square_table):
    """A degree is rational and sits at the identity class, which every power
    map fixes, so the table stays Galois-stable and the check takes its
    prime.  Off by 1, the prime sees it.  Off by that prime Q, its image mod Q
    vanishes, but the bound grows with the coefficient past Q / 2, so the
    exact products decide.  Either way the exact residuals are the
    two-relation reference's."""
    order, tensor = square_table.coefficient_tensor()
    q = _prime(square_table)[0]
    step = 1 if delta[1:] == "1" else q
    perturbed = _bumped(square_table, (len(tensor) - 1, 0, 0), step if delta[0] == "+" else -step)
    assert (2 * _row_bound(square_table.group, perturbed.coefficient_tensor()[1]) < q) == (step == 1)
    defect, primes = _checked(perturbed)
    assert set(defect) == {"rows", "columns"} and defect == orthogonality_defect_reference(perturbed)
    assert primes == [q]


@pytest.mark.parametrize("delta", ["+1", "-1", "+Q", "-Q"])
def test_a_coefficient_off_by_one_or_the_first_prime_fails(delta, square_table):
    """The last coefficient of a value off a rational class: sigma_u moves
    it, so the table is not Galois-stable and is refused before any prime
    is taken, with the two-relation reference's exact residuals."""
    order, tensor = square_table.coefficient_tensor()
    q = _prime(square_table)[0]
    step = 1 if delta[1:] == "1" else q
    cell = (len(tensor) - 1, len(tensor) // 2, tensor.shape[-1] - 1)
    perturbed = _bumped(square_table, cell, step if delta[0] == "+" else -step)
    defect, primes = _checked(perturbed)
    assert set(defect) == {"rows", "columns"} and defect == orthogonality_defect_reference(perturbed)
    assert primes == []


@pytest.mark.parametrize("gid", ["cyclic16", "heisenberg3_x_cyclic9", "order2187"])
def test_a_value_off_by_an_element_of_one_prime_above_q_fails(gid, table_of, product_2187):
    """delta, a short element of the prime (Q, zeta - z) over the check's
    prime Q, vanishes at the embedding zeta -> z mod Q and at no other.
    Every entry of the residual it makes is a multiple of delta, so the
    embedding the check takes cannot see it, and delta is small enough that
    the bound stays under Q / 2: only the Galois-stability check, which
    refuses the table before any prime is taken, tells it from a character
    table."""
    table = product_2187[1] if gid == "order2187" else table_of(gid)
    order, tensor = table.coefficient_tensor()
    q, z = _prime(table)
    delta = np.array(prime_ideal_short_vector(order, q, z))
    units = [u for u in range(1, order) if math.gcd(u, order) == 1]
    images = [sum(int(a) * pow(z, u * t, q) for t, a in enumerate(delta)) % q for u in units]
    assert images[0] == 0 and all(images[1:])
    perturbed = _bumped(table, (len(tensor) - 1, len(tensor) // 2), delta)
    assert 2 * _row_bound(table.group, perturbed.coefficient_tensor()[1]) < q
    defect, primes = _checked(perturbed)
    assert set(defect) == {"rows", "columns"} and defect == orthogonality_defect_reference(perturbed)
    assert primes == []


@pytest.mark.parametrize(
    "change", ["degree+1", "degree-1", "degree+Q", "degree-Q", "doubled", "zeroed", "negated", "all zeroed"]
)
def test_the_row_bound_covers_every_exact_residual(change, square_table):
    """B = |G| + max_a sum_c |C_c| L_a(c)^2 needs no property of a character
    table: on Galois-stable perturbations it is at least every entry of the
    exact row residual.  A zero table has residual -|G| I, which only the |G|
    term covers; a degree off by Q has residuals near Q^2, which only the
    square covers; a doubled linear row of cyclic16 has 3|G| on the diagonal,
    which only the sum over the classes covers."""
    group = square_table.group
    order, tensor = square_table.coefficient_tensor()
    q = _prime(square_table)[0]
    x = tensor.copy()
    if change.startswith("degree"):
        x[-1, 0, 0] += {"+1": 1, "-1": -1, "+Q": q, "-Q": -q}[change[6:]]
    elif change == "doubled":
        x[-1] *= 2
    elif change == "zeroed":
        x[-1] = 0
    elif change == "negated":
        x[-1] *= -1
    else:
        x[:] = 0
    residual = orthogonality_defect_reference(CharacterTable(group, order, x)).get("rows", 0)
    assert _row_bound(group, x) >= residual


def test_a_bound_past_half_the_prime_falls_back_to_the_exact_products(square_table, monkeypatch):
    """At the least prime Q = 1 (mod e), 2B >= Q: the check takes that one
    prime, images nothing, and the exact products decide, one ``gram`` for a
    clean table and two, with the reference's residuals, for a degree off
    by one."""
    from charprod import chartab

    group = square_table.group
    order, tensor = square_table.coefficient_tensor()
    q = find_prime(order, 2)
    assert 2 * _row_bound(group, tensor) >= q
    monkeypatch.setattr(chartab, "_split_prime", lambda order, classes: (q, nth_root_of_unity(q, order)))
    grams, gram = [], chartab.gram

    def refuse(*args):
        raise AssertionError("an image at a prime the bound does not lie under")

    def counted(*args):
        grams.append(args)
        return gram(*args)

    monkeypatch.setattr(chartab, "modular_values", refuse)
    monkeypatch.setattr(chartab, "gram", counted)
    assert _orthogonality_defect(square_table) == {} and len(grams) == 1
    perturbed = _bumped(square_table, (len(tensor) - 1, 0, 0), 1)
    defect = _orthogonality_defect(perturbed)
    assert defect and defect == orthogonality_defect_reference(perturbed) and len(grams) == 3


@settings(max_examples=40, deadline=None)
@given(gens=generator_sets(), data=st.data())
def test_power_classes_and_unit_generators(gens, data):
    """The power map by repeated squaring is the class of r_j^u by u - 1
    products, and the unit generators generate every unit mod e."""
    g = group_closure(gens)
    e = g.exponent
    units = {u for u in range(1, e + 1) if math.gcd(u, e) == 1}
    u = data.draw(st.sampled_from(sorted(units)))
    power = g.class_reps
    for _ in range(u - 1):
        power = g.products(power, g.class_reps)
    assert np.array_equal(_power_classes(g, u), g.class_of[power])
    reached = {1 % e}
    for gen in _unit_generators(e):
        reached = {a * pow(gen, k, e) % e for a in reached for k in range(e)}
    assert reached == {u % e for u in units}


def _galois(values, u, order):
    """sigma_u: zeta -> zeta^u on power-basis coefficients at ``order``."""
    t = np.arange(values.shape[-1])
    return values @ _reduction_matrix(order, order)[u * t % order]


@pytest.mark.parametrize("gid", ["modular16", "semidihedral16", "cyclic16"])
@pytest.mark.parametrize("fixed", ["-1", "5"])
def test_a_table_stable_under_one_unit_generator_only_fails(fixed, gid, table_of, monkeypatch):
    """At exponent 8 or 16 the units need two generators, -1 and 5.  delta, the
    product of sigma_u(1 + zeta) over the u generated by one of them, h, is
    fixed by sigma_h and not by the other; added to one row over the orbit of
    a class under the h-th power map, it keeps the table stable under
    sigma_h alone.  The check must refuse it before any prime is taken, as
    it does not when it checks h only."""
    table = table_of(gid)
    group = table.group
    order, tensor = table.coefficient_tensor()
    h, other = (order - 1, 5) if fixed == "-1" else (5, order - 1)
    assert _unit_generators(order) == (order - 1, 5)
    subgroup = sorted({pow(h, k, order) for k in range(order)})
    one_plus_zeta = np.array([1, 1] + [0] * (tensor.shape[-1] - 2))
    delta = np.eye(1, tensor.shape[-1], dtype=np.int64)[0]
    for u in subgroup:
        delta = multiply(delta, _galois(one_plus_zeta, u, order), order)
    assert np.array_equal(_galois(delta, h, order), delta) and not np.array_equal(_galois(delta, other, order), delta)
    j = int(np.argmax([group.element_order(r) for r in group.class_reps.tolist()]))
    orbit = sorted({int(_power_classes(group, u)[j]) for u in subgroup})
    bumped = tensor.copy()
    bumped[-1, orbit] += delta
    perturbed = CharacterTable(group, order, bumped)
    defect, primes = _checked(perturbed)
    assert primes == [] and defect and defect == orthogonality_defect_reference(perturbed)
    from charprod import chartab

    monkeypatch.setattr(chartab, "_unit_generators", lambda order: (h,))
    assert _checked(perturbed)[1] == [_prime(table)[0]]


def test_a_doubled_row_fails_only_on_the_diagonal(square_table):
    """Twice an irreducible is orthogonal to the others, so the only residual
    of the rows is 4|G| - |G| on the diagonal."""
    order, tensor = square_table.coefficient_tensor()
    doubled = tensor.copy()
    doubled[-1] *= 2
    perturbed = CharacterTable(square_table.group, order, doubled)
    defect = _orthogonality_defect(perturbed)
    assert defect["rows"] == 3 * square_table.group.order and defect == orthogonality_defect_reference(perturbed)


@settings(max_examples=40, deadline=None)
@given(gens=generator_sets(), data=st.data())
def test_random_tables_pass_and_perturbed_ones_fail_as_the_reference(gens, data):
    """Tables of random permutation groups are clean; off by +-1 or by +- the
    prime of their check in one coefficient, they fail with the
    reference's residuals, or, where the reference's exact products could
    pass 64 bits (a prime near 2^25 at exponent 60), with its error."""
    t = dixon_table(group_closure(gens))
    assert _orthogonality_defect(t) == {} == orthogonality_defect_reference(t)
    order, tensor = t.coefficient_tensor()
    cell = tuple(data.draw(st.integers(0, n - 1)) for n in tensor.shape)
    q = _prime(t)[0]
    perturbed = _bumped(t, cell, data.draw(st.sampled_from([1, -1, q, -q])))
    try:
        reference = orthogonality_defect_reference(perturbed)
    except CharprodError:
        with pytest.raises(CharprodError, match="64 bits"):
            _orthogonality_defect(perturbed)
    else:
        assert reference and _orthogonality_defect(perturbed) == reference


def test_a_ceiling_below_every_prime_raises(table_of, monkeypatch):
    """With the ceiling c (Q - 1)^2 < 99 for heisenberg3's 11 classes, no prime
    Q = 1 (mod 3) is left below it."""
    from charprod import chartab

    t = table_of("heisenberg3")
    chartab._split_prime.cache_clear()
    monkeypatch.setattr(chartab, "FLOAT_EXACT", 11 * 3**2)
    with pytest.raises(CharprodError, match=r"^no prime Q = 1 \(mod 3\) is left"):
        _orthogonality_defect(t)


def test_a_prime_at_the_ceiling_raises(table_of, monkeypatch):
    """The ceiling is asserted for the prime the check takes, also for one
    found earlier under a higher ceiling."""
    from charprod import chartab

    t = table_of("heisenberg3")
    q = _prime(t)[0]
    monkeypatch.setattr(chartab, "FLOAT_EXACT", 11 * (q - 1) ** 2)
    with pytest.raises(CharprodError, match=r"reaches 2\^53"):
        _orthogonality_defect(t)


def test_coefficients_past_the_gram_bound_raise(table_of):
    t = table_of("heisenberg3")
    with pytest.raises(CharprodError, match="64 bits"):
        _orthogonality_defect(_bumped(t, (1, 1, 0), 2**40))


@pytest.mark.parametrize("gid", ["dihedral8", "cyclic9", "heisenberg3"])
def test_corrupted_central_character_fails_the_lift(gid, group_of, table_of):
    g = group_of(gid)
    q = find_prime(g.exponent, 2 * math.isqrt(g.order - 1) + 2)
    lift = _value_lift(g, q, nth_root_of_unity(q, g.exponent))
    rows = set()
    m = g.num_classes
    for vec in _split_eigenspaces(g, q, np.zeros((0, m), dtype=np.int64)):
        omega = vec * inv_mod(int(vec[0]), q) % q
        degree = _lift_degree(omega, g, q, lift)
        rows.add(_lift_values(omega, degree, q, lift).tobytes())
        for j in range(1, g.num_classes):
            bad = omega.copy()
            bad[j] = (bad[j] + 1) % q
            with pytest.raises(LiftInconsistent):
                _lift_values(bad, degree, q, lift)
    assert rows == {chi.num.tobytes() for chi in table_of(gid).irreducibles}


def test_a_normalisation_sum_that_matches_no_degree_fails_the_lift(group_of):
    """Twice the principal central character of heisenberg3 has normalisation
    sum 4 |G| = 4 (mod q = 13): d^2 = 1/4 has the roots 6 and 7, both above
    isqrt(27) = 5, so no degree fits."""
    g = group_of("heisenberg3")
    q = find_prime(g.exponent, 2 * math.isqrt(g.order - 1) + 2)
    lift = _value_lift(g, q, nth_root_of_unity(q, g.exponent))
    principal = g.class_sizes % q
    assert q == 13 and _lift_degree(principal, g, q, lift) == 1
    assert _lift_degree(np.stack([principal, principal]), g, q, lift).tolist() == [1, 1]
    for omega in (2 * principal % q, np.stack([principal, 2 * principal % q])):
        with pytest.raises(LiftInconsistent, match="degree lift"):
            _lift_degree(omega, g, q, lift)


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


def test_table_is_built_once_across_threads(monkeypatch):
    import sys
    import threading
    import time

    from charprod import catalog, chartab

    g = catalog.parse_group(catalog.spec_for("heisenberg3").generators)
    split = chartab._split_eigenspaces

    def slow_split(*args):
        time.sleep(0.05)
        return split(*args)

    monkeypatch.setattr(chartab, "_split_eigenspaces", slow_split)
    start = threading.Barrier(8)
    tables = []

    def worker():
        start.wait(timeout=30)
        tables.append(dixon_table(g))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(tables) == 8 and all(t is tables[0] for t in tables)


def test_twin_and_first_tables_are_built_once_across_threads(monkeypatch):
    """Threads reading the tables of two Klein four-groups of D8, the second
    promoted as the first's twin, build one table: each group keeps one
    table object, and the twin's wraps the first's tensor."""
    import sys
    import threading
    import time

    from charprod import catalog, chartab
    from charprod.charops import InducedContext
    from charprod.structure import normal_lattice

    g = catalog.parse_group(catalog.spec_for("dihedral8").generators)
    members = [m for m in normal_lattice(g, dixon_table(g)).members if len(m.generators()) == 2 and m.order == 4]
    first, twin = (InducedContext.build(g, m).group for m in members)
    assert twin._twin_of is first
    builds, build = [], chartab._build_table

    def slow_build(group):
        builds.append(group)
        time.sleep(0.05)
        return build(group)

    monkeypatch.setattr(chartab, "_build_table", slow_build)
    start = threading.Barrier(8)
    tables = {first: [], twin: []}

    def worker(group):
        start.wait(timeout=30)
        tables[group].append(dixon_table(group))

    threads = [threading.Thread(target=worker, args=(h,)) for h in (twin, first) * 4]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [first]
    for group, seen in tables.items():
        assert len(seen) == 4 and all(t is seen[0] and t.group is group for t in seen)
    assert tables[twin][0].coefficient_tensor()[1] is tables[first][0].coefficient_tensor()[1]


def test_coefficient_tensor_is_built_once_across_threads(table_of):
    """The tensor a table is made from is its only representation: every
    thread reads that tensor, read-only, and every irreducible's coefficients
    are a view of it."""
    import sys
    import threading

    source = table_of("heisenberg3")
    order, tensor = source.coefficient_tensor()
    tensor = tensor.copy()
    table = CharacterTable(source.group, order, tensor)
    start = threading.Barrier(8)
    tensors = []

    def worker():
        start.wait(timeout=30)
        tensors.append(table.coefficient_tensor())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(tensors) == 8 and all(t[0] == order and t[1] is tensor for t in tensors)
    assert not tensor.flags.writeable
    assert all(np.shares_memory(chi.num, tensor) for chi in table.irreducibles)
    assert table.irreducibles == source.irreducibles
    assert table.degrees == tuple(chi.degree().as_integer() for chi in source.irreducibles)


def test_scalar_actions_leave_their_space_alone(monkeypatch):
    """A class matrix acting on a space as a scalar leaves it unsplit, with no
    solve for its action and no characteristic polynomial: heisenberg3 needs
    5 of each, not 12, to split all of GF(q)^m in class index order.  Its
    seeded build needs none: its centre separates its two central characters
    of degree 3, so the build starts on two lines; its table is unchanged."""
    import oracles
    from charprod import catalog, chartab

    calls, solves = [], []
    charpoly, solve = chartab.charpoly_mod, oracles.solve_columns_mod

    def counted(*args):
        calls.append(args)
        return charpoly(*args)

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)

    for module in (chartab, oracles):
        monkeypatch.setattr(module, "charpoly_mod", counted)
    monkeypatch.setattr(oracles, "solve_columns_mod", counted_solve)
    g = catalog.parse_group(catalog.spec_for("heisenberg3").generators)
    reference = unseeded_table(g)
    assert len(calls) == len(solves) == 5
    del calls[:]
    table = dixon_table(g)
    assert len(calls) == 0
    assert _json_sha256(table) == "151da976c042a5076024fb32be5bb924402920816419e58f64d3a73b176d7d94"
    assert table.irreducibles == reference.irreducibles


def _json_sha256(table):
    return hashlib.sha256(json.dumps(table.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def wreath_c9_c3():
    """C9 wr C3, transitive on 27 points and not a direct product."""
    return group_closure(_gens(WREATH_C9_C3))


def test_wreath_c9_c3_table_is_pinned(wreath_c9_c3):
    """C9 wr C3: 267 classes, 27 linear rows, and the JSON of the table built
    by applying the class matrices in class index order."""
    group = wreath_c9_c3
    table = dixon_table(group)
    assert (group.order, group.num_classes, table.degrees.count(1)) == (2187, 267, 27)
    assert _json_sha256(table) == "9da76922cc16fed96b95934556349814bc1036c85a9492caee0ab9dcb3cf3d3a"


def test_the_wreath_c9_c3_check_takes_one_prime(wreath_c9_c3):
    """Its l1 bound, about 2^13.5, lies far under half of the prime for 267
    classes, about 2^22.5, so one image decides the table, with no exact
    ``gram``."""
    table = dixon_table(wreath_c9_c3)
    with _decided_at_one_prime() as (results, primes):
        defect = _orthogonality_defect(table)
    assert defect == {} and results == [True] and primes == [_prime(table)[0]]


def test_every_row_check_of_the_catalog_and_order_2187_suites_takes_one_prime():
    """Every table the suites check, each group's own, its lattice members',
    the descent's subgroups' and quotients', built afresh: one prime each,
    and no exact ``gram``."""
    fresh = {gid: catalog.parse_group(catalog.spec_for(gid).generators) for gid in catalog.builtin_ids()}
    groups = list(fresh.items()) + [("order2187", direct_product(fresh["wreath3"], fresh["heisenberg3"]))]
    with _decided_at_one_prime() as (results, primes):
        run_suite(groups, STATEMENTS)
    assert len(results) > 300 and all(results) and len(primes) == len(results)


@settings(max_examples=30, deadline=None)
@given(group=small_p_groups())
def test_random_p_group_tables_equal_the_unseeded_build_at_one_prime(group):
    with _decided_at_one_prime() as (results, primes):
        table = dixon_table(group)
    assert results == [True] and len(primes) == 1
    order, tensor = table.coefficient_tensor()
    reference = unseeded_table(group).coefficient_tensor()
    assert order == reference[0] and np.array_equal(tensor, reference[1])


def test_order_2187_table_is_pinned(product_2187):
    assert _json_sha256(product_2187[1]) == "52eea684bf91f36b012be6d62ffbfdac90bc99b0c5bdd0cfaab83b6331358228"


def test_a_class_matrix_that_moves_an_eigenspace_fails_the_build(monkeypatch):
    """The second class matrix the split reaches, off by one in one entry of
    the first pivot row it reads, no longer keeps the eigenspaces of the
    first: the split reads a wrong action, and the build must fail, in the
    split or in the lifts and checks after it.  An entry that meets only
    zero rows of the open bases changes no action and leaves the table as
    it is; no corruption may give another table.  wreath3's split reaches
    six classes; the second is read from a clean build."""
    from charprod import catalog, chartab

    real = chartab.class_constants
    reached = []

    def recorded(group, i, rows=None):
        reached.append(i)
        return real(group, i, rows)

    def corrupted(column):
        def constants(group, i, rows=None):
            m = real(group, i, rows)
            if i == reached[1]:
                m = m.copy()
                m[0, column] += 1
            return m

        return constants

    spec = catalog.spec_for("wreath3")
    monkeypatch.setattr(chartab, "class_constants", recorded)
    reference = dixon_table(catalog.parse_group(spec.generators)).coefficient_tensor()[1]
    assert len(reached) >= 2
    failed = 0
    for column in range(len(reference)):
        monkeypatch.setattr(chartab, "class_constants", corrupted(column))
        try:
            tensor = dixon_table(catalog.parse_group(spec.generators)).coefficient_tensor()[1]
        except (LiftInconsistent, EigensplitStall):
            failed += 1
        else:
            assert np.array_equal(tensor, reference)
    assert failed


def test_the_order_2187_build_forms_pivot_rows_only(product_2187, monkeypatch):
    """The split of the order-2187 product reads every action off the rows of
    the class matrices at the open spaces' pivots: no solve for an action
    and no full class matrix, and the same tensor."""
    from charprod import chartab, modular

    group, table = product_2187
    solves, rows_taken = [], []
    real_constants, real_solve = chartab.class_constants, modular.solve_columns_mod

    def recorded_constants(g, i, rows=None):
        rows_taken.append(None if rows is None else len(rows))
        return real_constants(g, i, rows)

    def counted_solve(*args):
        solves.append(args)
        return real_solve(*args)

    monkeypatch.setattr(chartab, "class_constants", recorded_constants)
    monkeypatch.setattr(modular, "solve_columns_mod", counted_solve)
    order, tensor = _build_table(group).coefficient_tensor()
    assert solves == [] and rows_taken
    assert all(taken is not None and taken < group.num_classes for taken in rows_taken)
    assert order == table.coefficient_tensor()[0] and np.array_equal(tensor, table.coefficient_tensor()[1])


def test_determinism_generator_order():
    one, _ = parse_generators("(1 2 3 4)\n(1 3)")
    two, _ = parse_generators("(1 3)\n(1 2 3 4)")
    ga, gb = group_closure(one), group_closure(two)
    ta, tb = dixon_table(ga), dixon_table(gb)
    assert ta.degrees == tb.degrees
    # class indices differ with the generator order; realign columns by the
    # underlying element sets before comparing the row multisets
    by_members = {
        frozenset(map(tuple, ga.images[ga.class_members(j)].tolist())): j
        for j in range(ga.num_classes)
    }
    realign = [by_members[frozenset(map(tuple, gb.images[gb.class_members(j)].tolist()))]
               for j in range(gb.num_classes)]
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


@settings(max_examples=60, deadline=None)
@given(gens=generator_sets())
def test_random_tables_match_the_oracle(gens):
    """Random groups of order at most 24: the table has the oracle's rows,
    the principal row first and the rest ascending by ``row_sort_key``, the
    conjugate of each row where ``conjugate_index`` says, and the reference
    text and JSON of every value."""
    group = group_closure(gens)
    assume(group.order <= 24)
    t = dixon_table(group)
    assert {canonical_key(row) for row in brute_force_table(group)} == {
        canonical_key(tuple(chi.values)) for chi in t.irreducibles
    }
    assert t.irreducibles[0] == principal_character(group)
    keys = [row_sort_key(chi) for chi in t.irreducibles[1:]]
    assert keys == sorted(keys)
    lines = t.to_text().splitlines()[2:]
    for i, (chi, entry) in enumerate(zip(t.irreducibles, t.to_json()["irreducibles"])):
        assert t.irreducibles[t.conjugate_index(i)] == chi.conj()
        assert entry["values"] == [value_json_reference(v.order, v.num, v.den) for v in chi.values]
        texts = (value_text_reference(v.order, v.num, v.den).rjust(6) for v in chi.values)
        assert lines[i] == f"X{i:<5} " + " ".join(texts)


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


def _assert_renders_like_the_references(table):
    """Every value of to_json and every row of to_text as the per-value
    references write them, from the table's own coefficients."""
    order, tensor = table.coefficient_tensor()
    lines = table.to_text().splitlines()[2:]
    entries = table.to_json()["irreducibles"]
    assert len(lines) == len(entries) == len(tensor)
    for i, row in enumerate(tensor.tolist()):
        expected = [value_json_reference(order, v) for v in row]
        assert json.dumps(entries[i]["values"]) == json.dumps(expected)
        assert lines[i] == f"X{i:<5} " + " ".join(value_text_reference(order, v).rjust(6) for v in row)


@pytest.mark.parametrize("gid", [spec.id for spec in catalog.group_specs()])
def test_catalog_renderings_match_the_per_value_references(gid, table_of):
    _assert_renders_like_the_references(table_of(gid))


def test_order_2187_renderings_match_the_per_value_references(product_2187):
    _assert_renders_like_the_references(product_2187[1])


NEAR_2_62 = 2**62 + 5


@st.composite
def drawn_tensors(draw):
    """A catalog group with phi(exponent) > 1 and a drawn (rows, classes,
    phi) tensor at its exponent: cells from a pool of vectors with negative
    coefficients, each beside a copy that differs only in its last
    coefficient (the first two cells hold one such pair), and one
    coefficient near +-2^62."""
    gid = draw(st.sampled_from(["cyclic3", "dihedral8", "cyclic9", "heisenberg3"]))
    group = catalog.builtin(gid)
    phi = euler_phi(group.exponent)
    vector = st.lists(st.integers(-3, 3), min_size=phi, max_size=phi)
    pool = draw(st.lists(vector, min_size=1, max_size=4))
    pool += [v[:-1] + [v[-1] + draw(st.sampled_from([-1, 1, 2**20]))] for v in pool]
    cells = draw(st.integers(1, 4)) * group.num_classes
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=cells, max_size=cells))
    picks[:2] = [0, len(pool) // 2]
    tensor = np.array([pool[k] for k in picks], dtype=np.int64).reshape(-1, group.num_classes, phi)
    tensor.flat[draw(st.integers(0, tensor.size - 1))] = draw(st.sampled_from([-1, 1])) * draw(
        st.integers(NEAR_2_62 - 2**10, NEAR_2_62 + 2**10)
    )
    return gid, tensor


def _colliding_tensor():
    """(16, 0), (0, 4), -2 and 2^62 + 1 in one heisenberg3 row: packed as
    (c0 - lo) + (c1 - lo) * (hi - lo + 1) in int64, the first two vectors
    get the same key once the product wraps, since 4 (2^62 + 4) = 16 mod 2^64."""
    tensor = np.zeros((1, 11, 2), dtype=np.int64)
    tensor[0, :4] = [[16, 0], [0, 4], [-2, 0], [0, 2**62 + 1]]
    return tensor


@settings(max_examples=80, deadline=None)
@example(case=("heisenberg3", _colliding_tensor()))
@given(case=drawn_tensors())
def test_drawn_tensors_render_like_the_references(case):
    gid, tensor = case
    group = catalog.builtin(gid)
    _assert_renders_like_the_references(CharacterTable(group, group.exponent, tensor))


def _gens(text):
    return parse_generators(text)[0]


@settings(max_examples=40, deadline=None)
@example(gens=_gens("(1 2)\n(3 4 5 6)\n(7 8 9)"))  # abelian: C2 x C4 x C3
@example(gens=_gens("(1 2 3 4 5)\n(1 2 3)"))  # perfect: A5
@example(gens=_gens("(1 2 3 4)\n()\n(1 2 3 4)\n(1 3)"))  # identity and repeated generators
@given(gens=generator_sets(max_degree=7))
def test_seeded_tables_match_the_unseeded_split(gens):
    """Random subgroups of S_7: the table seeded by the linear characters is
    the tensor of the split of all of GF(q)^m, with |G:G'| linear rows, and
    has the oracle's rows for |G| <= 24."""
    group = group_closure(gens)
    table = dixon_table(group)
    order, tensor = table.coefficient_tensor()
    reference_order, reference = unseeded_table(group).coefficient_tensor()
    assert order == reference_order and np.array_equal(tensor, reference)
    assert table.degrees.count(1) == group.order // group.derived_subgroup().order
    if group.order <= 24:
        assert {canonical_key(row) for row in brute_force_table(group)} == {
            canonical_key(tuple(chi.values)) for chi in table.irreducibles
        }


def _recorded_build(group):
    """Build the table of ``group`` afresh, recording the classes whose class
    matrices it forms, in order, and the (q, known rows) each split starts
    from."""
    from charprod import chartab

    real_constants, real_split = chartab.class_constants, chartab._split_eigenspaces
    reached, started = [], []

    def recorded_constants(g, i, rows=None):
        reached.append(i)
        return real_constants(g, i, rows)

    def recorded_split(g, q, known):
        started.append((q, known))
        return real_split(g, q, known)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chartab, "class_constants", recorded_constants)
        patch.setattr(chartab, "_split_eigenspaces", recorded_split)
        _build_table(group)
    return reached, started


def _known_values(group, q, known):
    """The conjugate values mod q, at zeta -> z as in the build, of the known
    linear characters given by the logarithms of their values."""
    e = group.exponent
    z = nth_root_of_unity(q, e)
    return np.array([pow(z, -t % e, q) for t in range(e)], dtype=np.int64)[known]


def _assert_split_matches_index_order(group):
    """The split of a build finds the lines of the split of the annihilator of
    its known rows in class index order, central classes included, each
    scaled to omega(1) = 1; the build forms the class matrices of the classes
    of size above 1 only, in ascending class size, ties by ascending index."""
    reached, started = _recorded_build(group)
    keys = [(group.class_sizes[i], i) for i in reached]
    assert all(size > 1 for size, _ in keys) and keys == sorted(set(keys))
    if not started:
        assert len(_linear_logs(group)) == group.num_classes and not reached
        return
    (q, known), = started

    def lines(vectors):
        return {tuple((v * inv_mod(int(v[0]), q) % q).tolist()) for v in vectors}

    basis, pivots = nullspace_mod(_known_values(group, q, known), q)
    ordered = _split_eigenspaces(group, q, known)
    reference = split_in_index_order(group, q, basis, pivots)
    assert len(ordered) == len(reference) == basis.shape[1]
    assert lines(ordered) == lines(reference)


@settings(max_examples=40, deadline=None)
@example(gens=_gens("(1 2 3 4 5)\n(1 2 3)"))  # perfect: A5
@given(gens=generator_sets(max_degree=7))
def test_split_in_size_order_finds_the_lines_of_index_order(gens):
    _assert_split_matches_index_order(group_closure(gens))


@pytest.mark.parametrize("gid", catalog.builtin_ids())
def test_catalog_split_in_size_order_finds_the_lines_of_index_order(gid, group_of):
    _assert_split_matches_index_order(group_of(gid))


def _assert_start_spaces_are_the_central_eigenspaces(group):
    """The spaces the split of a build starts from: echelon bases inside the
    annihilator of the known rows, of dimensions summing to m - |known|, on
    which every central class matrix acts as a scalar lambda(c) mod q, where
    lambda is a homomorphism from Z(G) to the e-th roots of unity mod q,
    another one on each space; and the build forms no class matrix of a
    class of size 1."""
    reached, started = _recorded_build(group)
    assert all(group.class_sizes[i] > 1 for i in reached)
    if not started:
        return
    (q, known), = started
    m = group.num_classes
    spaces = _central_spaces(group, q, known)
    assert sum(len(pivots) for _, pivots in spaces) == m - len(known)
    centre = np.flatnonzero(group.class_sizes == 1)
    matrices = [class_constants(group, c) for c in centre]
    characters = set()
    for basis, pivots in spaces:
        assert basis.shape == (m, len(pivots)) and basis.min() >= 0 and basis.max() < q
        assert np.array_equal(basis[pivots], np.eye(len(pivots), dtype=np.int64))
        assert not (_known_values(group, q, known) @ basis % q).any()
        scalars = {}
        for c, matrix in zip(centre.tolist(), matrices):
            image = matrix @ basis % q
            scalars[c] = int(image[pivots[0], 0])
            assert np.array_equal(image, scalars[c] * basis % q)
        assert all(pow(s, group.exponent, q) == 1 for s in scalars.values())
        reps = group.class_reps[centre]
        product = group.class_of[group.products(reps[:, None], reps[None, :])]
        for a, b, ab in zip(np.repeat(centre, centre.size), np.tile(centre, centre.size), product.ravel()):
            assert scalars[int(a)] * scalars[int(b)] % q == scalars[int(ab)]
        characters.add(tuple(scalars.values()))
    assert len(characters) == len(spaces)


@settings(max_examples=40, deadline=None)
@example(gens=_gens("(1 2 3 4 5)\n(1 2 3)"))  # perfect: A5
@given(gens=generator_sets(max_degree=7))
def test_start_spaces_are_the_central_eigenspaces(gens):
    _assert_start_spaces_are_the_central_eigenspaces(group_closure(gens))


@pytest.mark.parametrize("gid", catalog.builtin_ids())
def test_catalog_start_spaces_are_the_central_eigenspaces(gid, group_of):
    _assert_start_spaces_are_the_central_eigenspaces(group_of(gid))


def test_order_2187_start_spaces_are_the_central_eigenspaces(product_2187):
    _assert_start_spaces_are_the_central_eigenspaces(product_2187[0])


@pytest.mark.parametrize("gid", SMALL_IDS + ["heisenberg3", "extraspecial27_exp9"])
def test_linear_rows_are_the_characters_of_the_abelianization(gid, group_of):
    """|G:G'| distinct rows of logarithms in Z/e, each a homomorphism:
    log chi(xy) = log chi(x) + log chi(y) on every pair of elements."""
    g = group_of(gid)
    logs = _linear_logs(g)
    assert logs.shape == (g.order // g.derived_subgroup().order, g.num_classes)
    assert len({row.tobytes() for row in logs}) == len(logs)
    assert logs.min() >= 0 and logs.max() < g.exponent
    x = np.arange(g.order)
    each = logs[:, g.class_of]
    products = logs[:, g.class_of[g.products(x[:, None], x[None, :])]]
    assert np.array_equal(products, (each[:, :, None] + each[:, None, :]) % g.exponent)


@pytest.mark.parametrize("text", ["degree=3", "(1 2)", "(1 2 3)", "(1 2 3 4 5)", "(1 2 3 4 5 6 7)"])
def test_trivial_and_prime_cyclic_tables(text):
    """The trivial group and C_p are their linear characters: one row per
    element, each value a p-th root of unity, checked like every table."""
    g = group_closure(_gens(text))
    t = dixon_table(g)
    assert _linear_logs(g).shape == (g.order, g.order)
    assert t.degrees == (1,) * g.order
    assert verify_orthogonality(t)
    assert t.irreducibles == unseeded_table(g).irreducibles
    assert {canonical_key(row) for row in brute_force_table(g)} == {
        canonical_key(tuple(chi.values)) for chi in t.irreducibles
    }


@pytest.mark.parametrize("kept", [0, 1])
def test_known_rows_left_out_of_the_annihilator_fail_the_build(kept, monkeypatch):
    """The split of a space that still holds known central characters finds
    them again; the duplicated rows must fail the build, not make a table."""
    from charprod import catalog, chartab

    real, seen = chartab._split_eigenspaces, []

    def dropping(group, q, known):
        seen.append(known.shape)
        return real(group, q, known[:kept])

    monkeypatch.setattr(chartab, "_split_eigenspaces", dropping)
    g = catalog.parse_group(catalog.spec_for("heisenberg3").generators)
    with pytest.raises(LiftInconsistent):
        dixon_table(g)
    assert seen == [(9, 11)]


@pytest.mark.parametrize("gid", ["cyclic9", "elemab_2_3", "cyclic16"])
def test_a_corrupted_linear_row_fails_an_abelian_build(gid, monkeypatch):
    """An abelian table is its linear rows, with no split; the exact
    orthogonality check still runs on it."""
    from charprod import catalog, chartab

    real = chartab._linear_logs

    def corrupted(group):
        logs = real(group)
        logs[-1, -1] = (logs[-1, -1] + 1) % group.exponent
        return logs

    monkeypatch.setattr(chartab, "_linear_logs", corrupted)
    g = catalog.parse_group(catalog.spec_for(gid).generators)
    with pytest.raises(LiftInconsistent, match="orthogonality"):
        dixon_table(g)


# -- quotient tables read off the parent's table ---------------------------------

P_GROUP_IDS = [spec.id for spec in catalog.group_specs() if spec.prime]


def _assert_same_tensor(table, reference):
    order, tensor = table.coefficient_tensor()
    reference_order, reference_tensor = reference.coefficient_tensor()
    assert order == reference_order and np.array_equal(tensor, reference_tensor)


@pytest.mark.parametrize("gid", P_GROUP_IDS)
def test_quotient_tables_equal_the_split_built_ones(gid, group_of, table_of):
    """For every normal N, the rows of G's table with N in their kernel,
    brought down to the exponent of G/N, are the tensor the split builds for
    a fresh G/N; the result is stored as the quotient's table."""
    g, t = group_of(gid), table_of(gid)
    for member in normal_lattice(g, t).members:
        qm = quotient(g, member)
        table = quotient_table(t, qm)
        assert qm.quotient._character_table is table and dixon_table(qm.quotient) is table
        _assert_same_tensor(table, _build_table(quotient(g, member).quotient))


def test_quotient_tables_of_the_order_2187_descent(product_2187, kernels_2187):
    g, t = product_2187
    for kernel in kernels_2187:
        table = quotient_table(t, quotient(g, kernel))
        _assert_same_tensor(table, _build_table(quotient(g, kernel).quotient))


def test_quotient_table_mutations_raise(group_of, table_of, monkeypatch):
    """A wrong stride, a dropped kernel filter and a missing parent row each
    raise LiftInconsistent and leave the quotient without a table."""
    g, t = group_of("heisenberg3_x_cyclic9"), table_of("heisenberg3_x_cyclic9")
    normal = next(
        m for m in normal_lattice(g, t).members if m.order == 3 and quotient(g, m).quotient.exponent == 9
    )
    assert t.coefficient_tensor()[0] == 9

    qm = quotient(g, normal)
    # stride 3 where it is 1: the values at zeta_9 do not lie in Q(zeta_3)
    monkeypatch.setattr(qm.quotient, "exponent", 3)
    with pytest.raises(LiftInconsistent):
        quotient_table(t, qm)
    monkeypatch.undo()
    assert qm.quotient._character_table is None

    qm = quotient(g, normal)
    inside = (qm.class_map == 0) & (np.arange(g.num_classes) > 0)
    assert inside.any()
    # only the identity class inside N: every row of G passes the filter
    unfiltered = QuotientMap(g, qm.quotient, qm.projection, np.where(inside, 1, qm.class_map))
    with pytest.raises(LiftInconsistent):
        quotient_table(t, unfiltered)
    assert qm.quotient._character_table is None

    order, tensor = t.coefficient_tensor()
    kept = np.flatnonzero((tensor[:, qm.class_map == 0] == tensor[:, :1]).all(axis=(1, 2)))
    short = CharacterTable(g, order, np.delete(tensor, kept[-1], axis=0))
    with pytest.raises(LiftInconsistent):
        quotient_table(short, qm)
    assert qm.quotient._character_table is None


def test_quotient_table_rejects_non_p_groups(group_of, table_of):
    g, t = group_of("sl23"), table_of("sl23")
    centre = next(m for m in normal_lattice(g, t).members if m.order == 2)
    with pytest.raises(NotAPGroup):
        quotient_table(t, quotient(g, centre))
