"""Cyclotomic values: the exact per-value reference in oracles.py, the text
format, and the engine's coefficient-array arithmetic checked against the
reference."""

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from charprod import catalog, cyclotomic
from charprod.charops import ClassFunction, inner_product
from charprod.chartab import _build_table, dixon_table
from charprod.cyclotomic import (
    Cyclotomic,
    conjugate,
    cyclotomic_polynomial,
    divisors,
    embed,
    euler_phi,
    gram,
    matmul_exact,
    multiply,
    value_json,
    value_text,
)
from charprod.errors import CharprodError

from oracles import (
    ExactCyclotomic,
    _inner,
    exact,
    exact_values,
    from_text,
    is_nonnegative_real,
    root_of_unity,
    value_json_reference,
    value_text_reference,
)


def test_root_of_unity_examples():
    assert root_of_unity(1, 0) == ExactCyclotomic.one()
    assert root_of_unity(4, 2).as_integer() == -1
    assert (root_of_unity(3, 1) + root_of_unity(3, 2)).as_integer() == -1
    assert root_of_unity(5, 1).conj() == root_of_unity(5, 4)


def test_hand_expanded_product():
    w = (1 + root_of_unity(8, 1)) * (1 + root_of_unity(8, 7))
    # (1 + z)(1 + z^-1) = 2 + z + z^7 and z^7 = -z^3 mod Phi_8
    assert w.coeffs == (Fraction(2), Fraction(1), Fraction(0), Fraction(-1))
    assert is_nonnegative_real(w)
    assert not is_nonnegative_real(-1 * w)


def test_as_integer_signal():
    assert Cyclotomic(1, (0,)).as_integer() == 0
    assert Cyclotomic(3, (0, 1)).as_integer() is None
    total = 1 + root_of_unity(3, 1) + root_of_unity(3, 2) + 1
    assert total.as_integer() == 1
    half = Cyclotomic(1, (1,), 2)
    assert half.as_integer() is None and half.as_rational() == Fraction(1, 2)


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 6, 8, 9, 12, 15, 24])
def test_canonicalization(e):
    zeta = root_of_unity(e, 1)
    assert zeta ** e == ExactCyclotomic.one()
    poly = cyclotomic_polynomial(e)
    total = ExactCyclotomic.zero(e)
    for k, c in enumerate(poly):
        if c:
            total = total + c * zeta ** k
    assert total.is_zero()


_orders = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24])


@st.composite
def cyclotomics(draw):
    e = draw(_orders)
    phi = euler_phi(e)
    num = draw(st.lists(st.integers(-6, 6), min_size=phi, max_size=phi))
    den = draw(st.integers(1, 4))
    return ExactCyclotomic(e, num, den)


@given(cyclotomics(), cyclotomics(), cyclotomics())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(cyclotomics())
@settings(max_examples=60, deadline=None)
def test_additive_inverse_and_conj_involution(a):
    assert (a + (-a)).is_zero()
    assert a.conj().conj() == a
    norm = a * a.conj()
    assert norm.conj() == norm
    assert is_nonnegative_real(norm)


@given(cyclotomics())
@settings(max_examples=40, deadline=None)
def test_norm_fixed_by_conjugation(a):
    norm = a * a.conj()
    assert norm == norm.conj()


@pytest.mark.parametrize("d,e", [(1, 4), (2, 8), (3, 12), (4, 12), (3, 24), (12, 24)])
def test_embedding_coherence(d, e):
    for k in range(d):
        z = root_of_unity(d, k)
        lifted = z.embed(e)
        assert lifted == z
        assert lifted.reduce_to(d) == z
        assert hash(lifted) == hash(z)


def test_minimal_descends():
    z = root_of_unity(3, 1).embed(24)
    assert z.minimal().order == 3
    assert exact(7).embed(24).minimal().order == 1


def test_text_round_trip():
    samples = [
        exact(5),
        exact(Fraction(-3, 2)),
        root_of_unity(8, 3),
        (1 + root_of_unity(8, 1)) * (1 + root_of_unity(8, 7)),
        ExactCyclotomic(12, [1, -2, 0, 5], 3),
    ]
    for z in samples:
        assert from_text(z.to_text()) == z
        assert from_text(Cyclotomic(z.order, z.num, z.den).to_text()) == z


def test_approx_is_display_only():
    z = root_of_unity(4, 1)
    assert abs(z.approx() - 1j) < 1e-9


def test_text_format_reduces_each_coefficient():
    assert Cyclotomic(12, (2, 0, -3, 4), 6).to_text() == "z(12;1/3,0,-1/2,2/3)"
    assert Cyclotomic(3, (0, 1)).to_json() == "z(3;0,1)"
    assert Cyclotomic(1, (-4,)).to_json() == -4
    assert Cyclotomic(1, (3,), 2).to_json() == "3/2"
    assert Cyclotomic(6, (3, 0), 2) == Fraction(3, 2)


@st.composite
def value_rows(draw):
    """(order, coefficients, den) of one value: rational when every
    coefficient past the first is zero, which a third of the draws force."""
    order = draw(st.integers(1, 30))
    num = draw(st.lists(st.integers(-12, 12), min_size=euler_phi(order), max_size=euler_phi(order)))
    if draw(st.integers(0, 2)) == 0:
        num[1:] = [0] * (len(num) - 1)
    return order, num, draw(st.integers(1, 12))


@given(value_rows())
@example((1, [4], 1))
@example((6, [-3, 0], 2))
@example((6, [0, 0], 5))
@example((12, [2, 0, -3, 4], 6))
@settings(max_examples=200, deadline=None)
def test_value_formatter_matches_the_reference(value):
    """Rational integers, other rationals and irrational values are written
    as the Fraction-based reference writes them, as text and as JSON."""
    order, num, den = value
    text, payload = value_text(order, num, den), value_json(order, num, den)
    assert text == value_text_reference(order, num, den)
    assert payload == value_json_reference(order, num, den)
    assert type(payload) is type(value_json_reference(order, num, den))
    assert (Cyclotomic(order, num, den).to_text(), Cyclotomic(order, num, den).to_json()) == (text, payload)


# -- coefficient arrays against the per-value reference ------------------------------

# orders up to 30, always including the non-prime-power orders 12, 15 and 24
_array_orders = st.one_of(st.sampled_from([12, 15, 24]), st.integers(1, 30))


@st.composite
def coefficient_rows(draw, order, rows):
    phi = euler_phi(order)
    cells = st.lists(st.integers(-9, 9), min_size=phi, max_size=phi)
    return np.array(draw(st.lists(cells, min_size=rows, max_size=rows)), dtype=np.int64).reshape(rows, phi)


def _exact_rows(num, order, den=1):
    return [ExactCyclotomic(order, row, den) for row in num.tolist()]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_array_helpers_match_the_reference(data):
    e = data.draw(_array_orders)
    x = data.draw(coefficient_rows(e, 3))
    y = data.draw(coefficient_rows(e, 3))
    target = e * data.draw(st.integers(1, 3))
    for got, a, b in zip(_exact_rows(multiply(x, y, e), e), _exact_rows(x, e), _exact_rows(y, e)):
        assert got == a * b
    for got, a in zip(_exact_rows(conjugate(x, e), e), _exact_rows(x, e)):
        assert got == a.conj()
    for got, a in zip(_exact_rows(embed(x, e, target), target), _exact_rows(x, e)):
        assert got.order == target and got.num == a.embed(target).num


# elementary abelian of order 4: exponent 2, four classes of size 1
_GROUP = catalog.parse_group(catalog.spec_for("elemab_2_2").generators)


@st.composite
def class_functions(draw, order):
    den = draw(st.integers(1, 12))
    num = draw(coefficient_rows(order, _GROUP.num_classes))
    return ClassFunction(_GROUP, _exact_rows(num, order, den))


# bounded, so no draw is rejected; the domain is still |r| < 50
@given(st.data(), st.fractions(min_value=-50, max_value=50, max_denominator=7).filter(lambda r: abs(r) != 50))
@settings(max_examples=60, deadline=None)
def test_class_function_arithmetic_matches_the_reference(data, r):
    """Two class functions, the second at a divisor of the first one's order."""
    e = data.draw(_array_orders)
    a = data.draw(class_functions(e))
    b = data.draw(class_functions(data.draw(st.sampled_from(divisors(e)))))
    xa, xb = exact_values(a), exact_values(b)
    assert (a * b).order == math.lcm(a.order, b.order)
    assert exact_values(a * b) == tuple(u * v for u, v in zip(xa, xb))
    assert exact_values(a + b) == tuple(u + v for u, v in zip(xa, xb))
    assert exact_values(a - b) == tuple(u - v for u, v in zip(xa, xb))
    assert exact_values(a.conj()) == tuple(u.conj() for u in xa)
    assert exact_values(a * r) == tuple(u * r for u in xa)
    # the same values written at a multiple order are equal, with equal hashes
    lifted = ClassFunction(_GROUP, [u.embed(2 * a.order) for u in xa])
    assert lifted.order == 2 * a.order
    assert lifted == a and hash(lifted) == hash(a)
    assert (a + b == a) == b.is_zero()


_HEISENBERG = catalog.parse_group(catalog.spec_for("heisenberg3").generators)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_class_function_json_formats_each_value_as_alone(data):
    """A class function's JSON, which formats each distinct value once, is the
    list of its values formatted one at a time, ints and strings alike: on
    heisenberg3 (11 classes) with values drawn from a pool of at most four,
    over a denominator."""
    e = data.draw(_array_orders)
    pool = data.draw(coefficient_rows(e, data.draw(st.integers(1, 4))))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=11, max_size=11))
    f = ClassFunction.from_coefficients(_HEISENBERG, e, pool[picks], data.draw(st.integers(1, 12)))
    alone = [value_json(f.order, row, f.den) for row in f.num.tolist()]
    assert json.dumps(f.to_json()) == json.dumps(alone)
    assert alone == [value_json_reference(f.order, row, f.den) for row in f.num.tolist()]


@lru_cache(maxsize=None)
def _cyclic_table(e):
    return dixon_table(catalog.parse_group("(" + " ".join(map(str, range(1, e + 1))) + ")"))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_inner_product_matches_the_reference(data):
    """Rational combinations of the characters of a cyclic group of order e
    have rational inner products; those agree with the reference."""
    e = data.draw(_array_orders.filter(lambda e: e > 1))
    table = _cyclic_table(e)
    weights = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=e, max_size=e)
    a, b = (sum((chi * w for chi, w in zip(table.irreducibles, data.draw(weights))), table.irreducibles[0] * 0)
            for _ in range(2))
    assert inner_product(a, b) == _inner(table.group, exact_values(a), exact_values(b))


def test_coefficients_never_wrap(table_of):
    chi = table_of("heisenberg3").irreducibles[9]
    big = chi * 2**40
    assert exact_values(big) == tuple(v * 2**40 for v in exact_values(chi))
    with pytest.raises(CharprodError):
        big * big
    with pytest.raises(CharprodError):
        inner_product(big, big)
    with pytest.raises(CharprodError):
        chi * 2**70
    with pytest.raises(CharprodError):
        ClassFunction(chi.group, [2**63] * chi.group.num_classes)


# -- the exact integer product ---------------------------------------------------


def _python_product(x, y):
    return (x.astype(object) @ y.astype(object)).tolist()


def _matrix(draw, rows, cols, entries):
    return np.array(draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64).reshape(
        rows, cols
    )


@st.composite
def product_operands(draw):
    """Signed operands whose bound n * max|x| * max|y| lies anywhere below
    2^63: n <= 5, max|x| <= 2^ex and max|y| <= 2^ey with ex + ey <= 60."""
    n, rows, cols = (draw(st.integers(1, 5)) for _ in range(3))
    ex = draw(st.integers(0, 57))
    ey = draw(st.integers(0, 60 - ex))
    return (
        _matrix(draw, rows, n, st.integers(-(2**ex), 2**ex)),
        _matrix(draw, n, cols, st.integers(-(2**ey), 2**ey)),
    )


@given(product_operands())
@settings(max_examples=300, deadline=None)
def test_matmul_exact_matches_python_integers(operands):
    x, y = operands
    got = matmul_exact(x, y)
    assert got.dtype == np.int64 and got.tolist() == _python_product(x, y)
    assert matmul_exact(y.T, x.T).tolist() == _python_product(y.T, x.T)


_NEAR_2_40 = st.integers(2**40 - 2**24, 2**40).flatmap(lambda v: st.sampled_from([v, -v]))
_NEAR_2_12 = st.integers(2**12, 2**13).flatmap(lambda v: st.sampled_from([v, -v]))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_int64_products_near_2_40(data):
    """Entries near 2^40 against entries near 2^12 with three columns: the
    bound lies between 2^53 and 2^63, so the product is made in int64."""
    x = _matrix(data.draw, 4, 3, _NEAR_2_40)
    y = _matrix(data.draw, 3, 5, _NEAR_2_12)
    assert 2**53 <= 3 * int(np.abs(x).max()) * int(np.abs(y).max()) < 2**63
    assert matmul_exact(x, y).tolist() == _python_product(x, y)
    assert matmul_exact(y.T, x.T).tolist() == _python_product(y.T, x.T)


def test_matmul_exact_on_both_sides_of_the_int64_edge():
    # bound 2^53 - 2: one float64 product, exact
    x = np.array([[2**52 - 1, 2**52 - 1]])
    assert matmul_exact(x, np.ones((2, 1), dtype=np.int64)).tolist() == [[2**53 - 2]]
    # 2^53 + 1 has no float64 image: exact only in int64
    for x, y in (([[2**53 + 1]], [[1]]), ([[2**27, 1]], [[2**26], [1]]), ([[2**60 - 1, -3]], [[1], [1]])):
        x, y = np.array(x), np.array(y)
        assert matmul_exact(x, y).tolist() == _python_product(x, y)
        assert matmul_exact(y.T, x.T).tolist() == _python_product(y.T, x.T)


def test_products_past_one_blas_block_are_assembled_from_row_blocks():
    rng = np.random.default_rng(7)
    x = rng.integers(-(2**20), 2**20, size=(2, 1500, 90))
    for y in (rng.integers(-(2**20), 2**20, size=(90, 4)), rng.integers(-(2**20), 2**20, size=90)):
        assert x.shape[-1] * (y.shape[-1] if y.ndim == 2 else 1) * len(x) * len(x[0]) > cyclotomic.BLAS_BLOCK
        assert matmul_exact(x, y).tolist() == (x.astype(object) @ y.astype(object)).tolist()


def test_blocked_float_product_matches_python_integers(monkeypatch):
    """A small BLAS_BLOCK drives ``_product`` through many float64 row
    blocks: one row per block (a row of 9 x 4 multiply-adds is past 16),
    seven rows per block with a short last block (9 per row against 64, y
    1-D or one column), and a bound just below 2^53, where every partial sum
    must still be exact."""
    rng = np.random.default_rng(23)
    top = 2**53 // 9 // 2**26
    x = rng.integers(-top, top, size=(2, 8, 9))
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, **kw: calls.append(len(a)) or matmul(a, b, **kw))
    for block, y, blocks in (
        (16, rng.integers(-(2**26), 2**26, size=(9, 4)), [1] * 16),
        (64, rng.integers(-(2**26), 2**26, size=9), [7, 7, 2]),
        (64, rng.integers(-(2**26), 2**26, size=(9, 1)), [7, 7, 2]),
    ):
        monkeypatch.setattr(cyclotomic, "BLAS_BLOCK", block)
        calls.clear()
        operands = cyclotomic._operands(x, y)
        assert operands[0].dtype == np.float64
        got = cyclotomic._product(*operands)
        assert calls == blocks
        assert got.dtype == np.int64 and got.tolist() == (x.astype(object) @ y.astype(object)).tolist()


def test_matmul_exact_refuses_a_bound_of_2_63():
    with pytest.raises(CharprodError, match="64 bits"):
        matmul_exact(np.array([[2**62]]), np.array([[2]]))
    with pytest.raises(CharprodError, match="64 bits"):
        matmul_exact(np.full((1, 4), 2**61), np.ones((4, 1), dtype=np.int64))
    with pytest.raises(CharprodError, match="64 bits"):
        gram(np.full((1, 2, 1), 2**31), np.full((1, 2, 1), 2**31), 1)


@st.composite
def gram_operands(draw):
    """Stacks x (i, c, phi) and y (j, c, phi) at an order with phi <= 2 whose
    per-slice bound c * max|x| * max|y| is c * 2^(ex + ey): below 2^53 for
    ex + ey <= 50, from 2^53 on for ex + ey in {53, 54}."""
    order = draw(st.sampled_from([1, 2, 3, 4, 6]))
    phi = euler_phi(order)
    ni, nj, c = (draw(st.integers(1, 3)) for _ in range(3))
    total = draw(st.one_of(st.integers(0, 50), st.sampled_from([53, 54])))
    ex = draw(st.integers(0, total))
    x = _matrix(draw, ni * c, phi, st.integers(-(2**ex), 2**ex)).reshape(ni, c, phi)
    y = _matrix(draw, nj * c, phi, st.integers(-(2 ** (total - ex)), 2 ** (total - ex))).reshape(nj, c, phi)
    x[0, 0, 0], y[0, 0, 0] = 2**ex, -(2 ** (total - ex))
    return x, y, order


@given(gram_operands())
@settings(max_examples=200, deadline=None)
def test_gram_matches_the_sum_of_products_over_classes(operands):
    x, y, order = operands
    products = multiply(x[:, None], y[None], order)
    assert gram(x, y, order).tolist() == products.astype(object).sum(axis=2).tolist()


@pytest.mark.parametrize("gid", ["cyclic8", "quaternion8", "heisenberg3", "extraspecial27_exp9", "sl23", "extraspecial125_exp25"])
def test_tables_built_on_the_int64_path_equal_the_float64_ones(gid, table_of, monkeypatch):
    """No engine data reaches the int64 path by its bound; with FLOAT_EXACT at
    1 every nonzero product takes it, and the table is the float64 one."""
    reference = table_of(gid).coefficient_tensor()
    dtypes, product = set(), cyclotomic._product

    def recorded(x, y):
        dtypes.add(x.dtype)
        return product(x, y)

    monkeypatch.setattr(cyclotomic, "FLOAT_EXACT", 1)
    monkeypatch.setattr(cyclotomic, "_product", recorded)
    order, tensor = _build_table(catalog.parse_group(catalog.spec_for(gid).generators)).coefficient_tensor()
    assert dtypes == {np.dtype(np.int64)}
    assert order == reference[0] and np.array_equal(tensor, reference[1])
