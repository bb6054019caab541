"""Independent brute-force oracles used by the tests.

These deliberately avoid the engine's algorithms: permutation arithmetic on
image tuples and a full multiplication table instead of base-image keys,
closure by set-products instead of breadth-first search (plus a one-element-
at-a-time breadth-first closure fixing the element order), conjugacy by
full-group conjugation, normal subgroups as join-closures of class unions,
and character tables extracted from the exact lattice of characters induced
from cyclic subgroups (certified by decomposing the regular character).
Signs of real cyclotomic values are decided by interval arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath

from charprod.cyclotomic import Cyclotomic, root_of_unity
from charprod.perm import Permutation


def compose(p, q):
    """The product pq: q acts first."""
    return Permutation(p.images[i] for i in q.images)


def inverse(p):
    images = [0] * p.degree
    for i, j in enumerate(p.images):
        images[j] = i
    return Permutation(images)


def power(p, k):
    result = Permutation.identity(p.degree)
    step = p if k >= 0 else inverse(p)
    for _ in range(abs(k)):
        result = compose(result, step)
    return result


def order(p):
    """Least k >= 1 with p^k the identity, by repeated composition."""
    identity = Permutation.identity(p.degree)
    k, current = 1, p
    while current != identity:
        k, current = k + 1, compose(current, p)
    return k


def closure_reference(gens):
    """Breadth-first closure on image tuples: every element in order times
    every generator in order, new products appended.  The element order the
    engine's level-by-level closure must reproduce."""
    identity = Permutation.identity(gens[0].degree)
    elements, seen = [identity], {identity}
    cursor = 0
    while cursor < len(elements):
        current = elements[cursor]
        cursor += 1
        for g in gens:
            nxt = compose(current, g)
            if nxt not in seen:
                seen.add(nxt)
                elements.append(nxt)
    return elements


def closure_oracle(gens):
    """Set-product fixpoint closure (not breadth-first)."""
    degree = gens[0].degree
    current = {Permutation.identity(degree)} | set(gens)
    while True:
        nxt = set(current)
        for a in current:
            for b in gens:
                nxt.add(compose(a, b))
        if len(nxt) == len(current):
            return current
        current = nxt


@lru_cache(maxsize=4)
def cayley_table(group):
    """mul[a][b] = index of x_a x_b, by composing the elements' image tuples
    and looking the product up by its full image tuple."""
    elements = [group.element(i).images for i in range(group.order)]
    index = {p: i for i, p in enumerate(elements)}
    return [[index[tuple([a[i] for i in b])] for b in elements] for a in elements]


def class_constants_oracle(group):
    """a[i][j][k] = #{(x, y) in C_i x C_j : xy = z_k}, counting all pairs."""
    mul = cayley_table(group)
    m = group.num_classes
    class_of_rep = {c.representative: k for k, c in enumerate(group.classes)}
    out = [[[0] * m for _ in range(m)] for _ in range(m)]
    for x, row in enumerate(mul):
        for y, z in enumerate(row):
            k = class_of_rep.get(z)
            if k is not None:
                out[group.class_of[x]][group.class_of[y]][k] += 1
    return out


def conjugacy_oracle(group):
    """Partition by conjugating with every group element."""
    seen = [False] * group.order
    classes = []
    for i in range(group.order):
        if seen[i]:
            continue
        orbit = sorted({group.conjugate(i, g) for g in range(group.order)})
        for x in orbit:
            seen[x] = True
        classes.append(tuple(orbit))
    return classes


def class_closure(group, class_indices, _memo=None):
    """Subgroup closure of a union of classes, as a frozenset of classes."""
    key = frozenset(class_indices)
    if _memo is not None and key in _memo:
        return _memo[key]
    mul = cayley_table(group)
    members = {0}
    for j in key:
        members.update(group.classes[j].members)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        snapshot = list(members)
        for b in snapshot:
            for c in (mul[x][b], mul[b][x]):
                if c not in members:
                    members.add(c)
                    frontier.append(c)
    result = frozenset(group.class_of[i] for i in members)
    if _memo is not None:
        _memo[key] = result
        _memo[result] = result
    return result


def normal_lattice_oracle(group):
    """All class-union subgroups: join-closure of the single-class closures."""
    memo = {}
    singles = {class_closure(group, [j], memo) for j in range(group.num_classes)}
    singles.add(frozenset({0}))
    found = set(singles)
    frontier = list(found)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(found):
                if a <= b or b <= a:
                    continue
                joined = class_closure(group, a | b, memo)
                if joined not in found:
                    found.add(joined)
                    fresh.append(joined)
        frontier = fresh
    return found


def normal_powerset_oracle(group):
    """Literal scan of every union of classes; only for tiny class counts."""
    m = group.num_classes
    assert m <= 14, "powerset oracle is for small groups"
    mul = cayley_table(group)
    out = set()
    for mask in range(1 << m):
        if not mask & 1:
            continue
        classes = [j for j in range(m) if mask >> j & 1]
        members = set()
        for j in classes:
            members.update(group.classes[j].members)
        if all(mul[a][b] in members for a in members for b in members):
            out.add(frozenset(classes))
    return out


# -- exact table oracle ----------------------------------------------------------


def _inner(group, a, b):
    total = Cyclotomic.zero()
    for cls, av, bv in zip(group.classes, a, b):
        term = av * bv.conj()
        if term:
            total = total + cls.size * term
    r = (total * Fraction(1, group.order)).as_rational()
    assert r is not None, "oracle inner product must be rational"
    return r


def _induce_from(group, sub_elements, values_by_element):
    """Frobenius induction by raw summation over the whole group."""
    mul = cayley_table(group)
    inv = [row.index(0) for row in mul]
    out = []
    for cls in group.classes:
        rep = cls.representative
        total = Cyclotomic.zero()
        for x, row in enumerate(mul):
            y = mul[row[rep]][inv[x]]
            if y in values_by_element:
                total = total + values_by_element[y]
        out.append(total * Fraction(1, len(sub_elements)))
    return tuple(out)


def _cyclic_induced_pool(group):
    """1_G plus every character induced from a linear character of a cyclic
    subgroup, deduplicated."""
    pool = {}

    def add(values):
        key = tuple((v.order, v.num, v.den) for v in values)
        if key not in pool:
            pool[key] = tuple(values)

    add(tuple(Cyclotomic.one() for _ in group.classes))
    seen_subgroups = set()
    mul = cayley_table(group)
    for x in range(1, group.order):
        powers = [0]
        current = x
        while current != 0:
            powers.append(current)
            current = mul[current][x]
        sub = frozenset(powers)
        if sub in seen_subgroups:
            continue
        seen_subgroups.add(sub)
        o = len(powers)
        for j in range(o):
            values_by_element = {
                powers[k]: root_of_unity(o, j * k) for k in range(o)
            }
            add(_induce_from(group, sub, values_by_element))
    return list(pool.values())


def _pointwise(a, b):
    return tuple(x * y for x, y in zip(a, b))


def _abelian_dual(mul, identity, elements):
    """Characters of an abelian group given by its multiplication, built by
    extending along a chain of cyclic steps; element -> exponent maps, one E."""

    def order_of(x):
        n, acc = 1, x
        while acc != identity:
            acc = mul(acc, x)
            n += 1
        return n

    elements = sorted(elements)
    exponent = 1
    for x in elements:
        o = order_of(x)
        exponent = exponent * o // _gcd(exponent, o)
    chars = [{identity: 0}]
    for x in elements:
        if x in chars[0]:
            continue
        powers = [x]
        current = x
        while current not in chars[0]:
            current = mul(current, x)
            powers.append(current)
        o_x = len(powers)  # minimal t with x^t in the current span
        base_elt = powers[-1]
        step = exponent // o_x
        new_chars = []
        for lam in chars:
            a = lam[base_elt]
            assert a % o_x == 0, "abelian extension not solvable (oracle bug)"
            b0 = a // o_x
            for j in range(o_x):
                b = (b0 + j * step) % exponent
                ext = dict(lam)
                for h, vh in lam.items():
                    for t in range(1, o_x):
                        ext[mul(h, powers[t - 1])] = (vh + t * b) % exponent
                new_chars.append(ext)
        chars = new_chars
    return exponent, chars


def _abelian_linear_characters(group, elements):
    mul = cayley_table(group)
    return _abelian_dual(lambda a, b: mul[a][b], 0, elements)


def _linear_character_pool(group):
    """All linear characters of the group: the dual of the abelianization,
    computed from scratch (all-pairs commutators, coset multiplication)."""
    mul = cayley_table(group)
    inv = [row.index(0) for row in mul]
    commutators = set()
    for a in range(group.order):
        for b in range(group.order):
            commutators.add(mul[mul[inv[a]][inv[b]]][mul[a][b]])
    derived = {0}
    frontier = list(commutators)
    while frontier:
        x = frontier.pop()
        if x in derived:
            continue
        derived.add(x)
        for y in list(derived):
            for z in (mul[x][y], mul[y][x]):
                if z not in derived:
                    frontier.append(z)
    coset_of = {}
    reps = []
    for i in range(group.order):
        if i in coset_of:
            continue
        rep = len(reps)
        reps.append(i)
        for d in derived:
            coset_of[mul[i][d]] = rep

    def coset_mul(a, b):
        return coset_of[mul[reps[a]][reps[b]]]

    exponent, chars = _abelian_dual(coset_mul, 0, range(len(reps)))
    out = []
    for lam in chars:
        out.append(tuple(
            root_of_unity(exponent, lam[coset_of[cls.representative]])
            for cls in group.classes
        ))
    return out


def _abelian_subgroup_pool(group, limit_triples):
    """Characters induced from linear characters of abelian subgroups
    generated by commuting pairs (and triples on small groups)."""
    seen = set()
    out = []
    candidates = []
    n = group.order
    mul = cayley_table(group)
    for a in range(1, n):
        for b in range(a + 1, n):
            if mul[a][b] == mul[b][a]:
                candidates.append((a, b))
    if limit_triples:
        for a in range(1, n):
            for b in range(a + 1, n):
                if mul[a][b] != mul[b][a]:
                    continue
                for c in range(b + 1, n):
                    if (mul[a][c] == mul[c][a]
                            and mul[b][c] == mul[c][b]):
                        candidates.append((a, b, c))
    for gens in candidates:
        members = group.subgroup(gens).element_set
        if members in seen:
            continue
        seen.add(members)
        exponent, chars = _abelian_linear_characters(group, members)
        for lam in chars:
            values_by_element = {h: root_of_unity(exponent, e) for h, e in lam.items()}
            out.append(_induce_from(group, members, values_by_element))
    return out


def _hnf_with_track(rows, track):
    """Integer row HNF; carries a transformation record alongside."""
    rows = [list(r) for r in rows]
    track = [list(t) for t in track]
    n_rows = len(rows)
    cols = len(rows[0])
    pivot_row = 0
    for col in range(cols):
        while True:
            nonzero = [r for r in range(pivot_row, n_rows) if rows[r][col]]
            if not nonzero:
                break
            sel = min(nonzero, key=lambda r: abs(rows[r][col]))
            rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
            track[pivot_row], track[sel] = track[sel], track[pivot_row]
            p = rows[pivot_row][col]
            done = True
            for r in range(pivot_row + 1, n_rows):
                if rows[r][col]:
                    f = rows[r][col] // p
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
                    track[r] = [a - f * b for a, b in zip(track[r], track[pivot_row])]
                    if rows[r][col]:
                        done = False
            if done:
                break
        if any(rows[r][col] for r in range(pivot_row, n_rows)):
            pivot_row += 1
        if pivot_row == n_rows:
            break
    return rows[:pivot_row], track[:pivot_row]


def _ldl(gram):
    """LDL^T of a positive definite rational matrix."""
    n = len(gram)
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for i in range(n):
        for j in range(i + 1):
            s = gram[i][j] - sum(lower[i][k] * lower[j][k] * diag[k] for k in range(j))
            if i == j:
                assert s > 0, "gram matrix not positive definite"
                diag[i] = s
                lower[i][i] = Fraction(1)
            else:
                lower[i][j] = s / diag[j]
    return lower, diag


def _norm_one_vectors(gram):
    """All integer vectors u with u^T gram u == 1, up to sign."""
    import math as _math

    lower, diag = _ldl(gram)
    n = len(gram)
    solutions = []

    def recurse(k, u, remaining):
        if k < 0:
            if remaining == 0:
                solutions.append(tuple(u))
            return
        # quadratic in u_k: diag[k] * (u_k + mu)^2 <= remaining
        mu = sum(lower[j][k] * u[j] for j in range(k + 1, n))
        center = -mu
        cand = _math.floor(center)
        while diag[k] * (cand + mu) ** 2 <= remaining:
            u[k] = cand
            recurse(k - 1, u, remaining - diag[k] * (cand + mu) ** 2)
            cand -= 1
        cand = _math.floor(center) + 1
        while diag[k] * (cand + mu) ** 2 <= remaining:
            u[k] = cand
            recurse(k - 1, u, remaining - diag[k] * (cand + mu) ** 2)
            cand += 1
        u[k] = 0

    recurse(n - 1, [0] * n, Fraction(1))
    dedup = set()
    out = []
    for u in solutions:
        if any(u):
            canon = max(u, tuple(-x for x in u))
            if canon not in dedup:
                dedup.add(canon)
                out.append(u)
    return out


def canonical_key(values):
    """Order-independent comparison key for a tuple of cyclotomic values."""
    out = []
    for v in values:
        m = v.minimal()
        out.append((m.order, m.num, m.den))
    return tuple(out)


def brute_force_table(group):
    """Irreducible characters from the lattice of induced characters.

    Finds every norm-one positive-degree vector in the integral span and
    certifies the result by decomposing the regular character exactly.
    Returns a list of value tuples sorted by (degree, value key).  The pool
    starts from cyclic subgroups and widens (abelian subgroups, then pairwise
    products) when the plain pool does not reach the full character lattice.
    """
    pool = _cyclic_induced_pool(group)
    keys = {canonical_key(f) for f in pool}
    for lam in _linear_character_pool(group):
        key = canonical_key(lam)
        if key not in keys:
            keys.add(key)
            pool.append(lam)
    try:
        return _extract_irreducibles(group, list(pool))
    except AssertionError:
        pass
    for extra in _abelian_subgroup_pool(group, limit_triples=group.order <= 16):
        key = canonical_key(extra)
        if key not in keys:
            keys.add(key)
            pool.append(extra)
    try:
        return _extract_irreducibles(group, list(pool))
    except AssertionError:
        pass
    base = list(pool)
    for i in range(len(base)):
        for j in range(i, len(base)):
            prod = _pointwise(base[i], base[j])
            key = canonical_key(prod)
            if key not in keys:
                keys.add(key)
                pool.append(prod)
    return _extract_irreducibles(group, pool)


def _extract_irreducibles(group, pool):
    m = group.num_classes
    gram_cache = {}

    def inner(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in gram_cache:
            gram_cache[key] = _inner(group, pool[key[0]], pool[key[1]])
        return gram_cache[key]

    basis = []
    for idx in range(len(pool)):
        trial = basis + [idx]
        g = [[inner(a, b) for b in trial] for a in trial]
        det = _det(g)
        if det != 0:
            basis = trial
            if len(basis) == m:
                break
    assert len(basis) == m, "induced characters failed to span the class functions"

    gram_basis = [[inner(a, b) for b in basis] for a in basis]
    inv = _invert(gram_basis)
    coord_rows = []
    for idx in range(len(pool)):
        rhs = [inner(idx, b) for b in basis]
        coord_rows.append([sum(inv[r][c] * rhs[c] for c in range(m)) for r in range(m)])
    denom = 1
    for row in coord_rows:
        for v in row:
            denom = denom * v.denominator // _gcd(denom, v.denominator)
    int_rows = [[int(v * denom) for v in row] for row in coord_rows]
    track = [[1 if k == idx else 0 for k in range(len(pool))] for idx in range(len(pool))]
    hnf_rows, hnf_track = _hnf_with_track(int_rows, track)
    assert len(hnf_rows) == m, "lattice rank dropped during reduction"

    lattice_gram = []
    for r1 in range(m):
        row = []
        for r2 in range(m):
            total = Fraction(0)
            for i, ci in enumerate(hnf_track[r1]):
                if ci:
                    for j, cj in enumerate(hnf_track[r2]):
                        if cj:
                            total += ci * cj * inner(i, j)
            row.append(total)
        lattice_gram.append(row)

    found = []
    for u in _norm_one_vectors(lattice_gram):
        combo = [0] * len(pool)
        for k, uk in enumerate(u):
            if uk:
                for i, c in enumerate(hnf_track[k]):
                    combo[i] += uk * c
        values = None
        for i, c in enumerate(combo):
            if c:
                part = tuple(v * c for v in pool[i])
                values = part if values is None else tuple(a + b for a, b in zip(values, part))
        degree = values[0].as_rational()
        if degree < 0:
            values = tuple(-v for v in values)
        found.append(values)
    assert len(found) == m, f"norm-one extraction found {len(found)} of {m} characters"

    # certificate: orthonormality and the regular character decomposition
    for i in range(m):
        for j in range(i, m):
            assert _inner(group, found[i], found[j]) == (1 if i == j else 0)
    regular = [Cyclotomic.from_rational(group.order)] + [Cyclotomic.zero()] * (m - 1)
    total = [Cyclotomic.zero()] * m
    for values in found:
        d = values[0]
        for c in range(m):
            total[c] = total[c] + d * values[c]
    assert all(total[c] == regular[c] for c in range(m)), "regular character certificate failed"

    def sort_key(values):
        return (values[0].as_rational(), tuple((v.order, v.num, v.den) for v in values))

    return sorted(found, key=sort_key)


def _det(matrix):
    m = [row[:] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        sel = next((r for r in range(c, n) if m[r][c] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != c:
            m[c], m[sel] = m[sel], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _invert(matrix):
    n = len(matrix)
    aug = [
        [Fraction(matrix[r][c]) for c in range(n)]
        + [Fraction(1 if k == r else 0) for k in range(n)]
        for r in range(n)
    ]
    for c in range(n):
        sel = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[sel] = aug[sel], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def is_nonnegative_real(value):
    """Decide value >= 0 for a real cyclotomic value.

    Rational values are compared exactly; irrational ones through interval
    arithmetic with widening precision (sound: a real irrational is nonzero,
    so some precision separates it from zero).
    """
    if value != value.conj():
        return False
    r = value.as_rational()
    if r is not None:
        return r >= 0
    e = value.order
    for prec in (80, 160, 320, 640, 1280):
        with mpmath.workprec(prec):
            total = mpmath.iv.mpf(0)
            iv_pi = mpmath.iv.pi
            for i, c in enumerate(value.num):
                if c:
                    total += c * mpmath.iv.cos(2 * iv_pi * i / e)
            total /= value.den
            if total.a > 0:
                return True
            if total.b < 0:
                return False
    raise ArithmeticError("interval precision exhausted deciding sign")
