from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charprod.cyclotomic import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    from_text,
    root_of_unity,
)

from oracles import is_nonnegative_real


def test_root_of_unity_examples():
    assert root_of_unity(1, 0) == Cyclotomic.one()
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
    assert Cyclotomic.zero().as_integer() == 0
    assert root_of_unity(3, 1).as_integer() is None
    total = 1 + root_of_unity(3, 1) + root_of_unity(3, 2) + 1
    assert total.as_integer() == 1
    half = Cyclotomic.from_rational(Fraction(1, 2))
    assert half.as_integer() is None and half.as_rational() == Fraction(1, 2)


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 6, 8, 9, 12, 15, 24])
def test_canonicalization(e):
    zeta = root_of_unity(e, 1)
    assert zeta ** e == Cyclotomic.one()
    poly = cyclotomic_polynomial(e)
    total = Cyclotomic.zero(e)
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
    return Cyclotomic(e, num, den)


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
    assert Cyclotomic.from_rational(7).embed(24).minimal().order == 1


def test_text_round_trip():
    samples = [
        Cyclotomic.from_rational(5),
        Cyclotomic.from_rational(Fraction(-3, 2)),
        root_of_unity(8, 3),
        (1 + root_of_unity(8, 1)) * (1 + root_of_unity(8, 7)),
        Cyclotomic(12, [1, -2, 0, 5], 3),
    ]
    for z in samples:
        assert from_text(z.to_text()) == z


def test_approx_is_display_only():
    z = root_of_unity(4, 1)
    assert abs(z.approx() - 1j) < 1e-9
