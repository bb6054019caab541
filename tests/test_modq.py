"""The bulk verification engine images exact tables modulo a prime with an
a-priori bound; these tests pin that fast path to the exact cyclotomic one."""

import numpy as np
import pytest

from charprod.charops import decompose, inner_product, restrict
from charprod.modular import (
    charpoly_mod,
    find_prime,
    is_prime,
    nth_root_of_unity,
    nullspace_mod,
    poly_roots_mod,
    primitive_root,
)
from charprod.verify import GroupSession, _ModularTable


def test_prime_search():
    assert find_prime(1, 10) == 11
    assert find_prime(12, 10) == 13
    assert find_prime(9, 486) == 487
    q = find_prime(8, 33)
    assert q == 41 and is_prime(q) and q % 8 == 1


def test_primitive_roots():
    for q in (5, 13, 17, 487):
        g = primitive_root(q)
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = x * g % q
            seen.add(x)
        assert len(seen) == q - 1
    z = nth_root_of_unity(13, 4)
    assert pow(z, 4, 13) == 1 and pow(z, 2, 13) != 1


def test_charpoly_and_roots():
    m = np.array([[2, 0, 0], [0, 3, 0], [0, 0, 3]], dtype=np.int64)
    q = 11
    poly = charpoly_mod(m, q)
    assert poly_roots_mod(poly, q) == [2, 3]
    shifted = (m - 3 * np.eye(3, dtype=np.int64)) % q
    assert nullspace_mod(shifted, q).shape[1] == 2


@pytest.mark.parametrize("gid", ["cyclic9", "dihedral8", "quaternion16", "sl23", "heisenberg3", "elemab_3_2"])
def test_product_tensor_matches_exact_decomposition(gid, group_of, table_of):
    g = group_of(gid)
    t = table_of(gid)
    session = GroupSession(g, gid)
    a = session.products
    n = len(t.irreducibles)
    for i in range(n):
        for j in range(n):
            dec = decompose(t.irreducibles[i] * t.irreducibles[j], t)
            expected = {k: m for k, m in dec.constituents}
            for k in range(n):
                assert int(a[i, j, k]) == expected.get(k, 0)


@pytest.mark.parametrize("gid", ["dihedral8", "heisenberg3", "modular16"])
def test_restriction_matrix_matches_exact(gid, group_of, table_of):
    g = group_of(gid)
    t = table_of(gid)
    session = GroupSession(g, gid)
    for data in session.normal_data:
        ctx = data["ctx"]
        r = data["R"]
        for i, chi in enumerate(t.irreducibles):
            down = restrict(chi, ctx)
            for k, phi in enumerate(ctx.table.irreducibles):
                assert int(r[i, k]) == inner_product(down, phi, characters=True)


def test_eta_matrix_matches_exact(group_of, table_of):
    g = group_of("sl23")
    t = table_of("sl23")
    session = GroupSession(g, "sl23")
    n = len(t.irreducibles)
    for i in range(n):
        for j in range(n):
            dec = decompose(t.irreducibles[i] * t.irreducibles[j], t)
            assert int(session.eta[i, j]) == dec.eta


def test_bound_large_enough(group_of):
    for gid in ("dihedral8", "heisenberg3", "sl23"):
        g = group_of(gid)
        session = GroupSession(g, gid)
        assert session.q > 2 * session.bound
        assert session.q % g.exponent == 1


def _image(value, z, top_exponent, q):
    """sum_k c_k z_local^k mod q for the coefficients c_k of one exact value."""
    assert value.den == 1
    z_local = pow(z, top_exponent // value.order, q)
    return sum(c * pow(z_local, k, q) for k, c in enumerate(value.num)) % q


@pytest.mark.parametrize("gid", ["cyclic9", "dihedral8", "quaternion16", "modular16", "extraspecial27_exp9", "sl23"])
def test_modular_table_images_every_value(gid, group_of):
    g = group_of(gid)
    session = GroupSession(g, gid)
    q, z, e = session.q, session.z, g.exponent
    tables = [session.table] + [data["ctx"].table for data in session.normal_data]
    assert any(1 < t.group.exponent < e for t in tables)
    for table in tables:
        mod = _ModularTable(table, q, z, e)
        expected = [[_image(v, z, e, q) for v in chi.values] for chi in table.irreducibles]
        assert mod.values.tolist() == expected
