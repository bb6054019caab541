"""Independent brute-force oracles used by the tests.

These deliberately avoid the engine's algorithms: permutation arithmetic on
image tuples and a full multiplication table instead of base-image keys,
closure by set-products instead of breadth-first search (plus a one-element-
at-a-time breadth-first closure fixing the element order), conjugacy by
full-group conjugation, normal subgroups as join-closures of class unions,
and character tables extracted from the exact lattice of characters induced
from cyclic subgroups (certified by decomposing the regular character).
Cyclotomic values are computed one at a time on Python integers
(``ExactCyclotomic``) instead of the engine's int64 coefficient arrays.
Signs of real cyclotomic values are decided by interval arithmetic.
Some references are the engine's own earlier routes: ``unseeded_table``
splits all of GF(q)^m with no known rows, against which the seeded build is
checked, ``split_in_index_order`` applies the class matrices, central ones
included, in class index order to the annihilator of the known rows,
against which the split from the central characters in class-size order is
checked, ``level_closure_reference`` closes a subgroup one breadth-first
level per array call, against which the queue closure is checked, and
``promotion_reference`` closes a subgroup's generators afresh, against which
the promotion from the parent's indices is checked.  ``products_reference``
forms the product of every ordered pair of irreducibles, against which the
product over the pairs chi <= psi is checked, ``center_sets_reference``
takes Z(chi) from exact norms, against which ``charops.center_masks``, the
reading of chi(g) as chi(1) times a root of unity, is checked,
``normal_closure_sets_reference`` takes V(chi) as the first lattice member
holding the classes where chi's exact value is not zero, against which the
one mask product for every V(chi) is checked, and ``pair_records_reference``
writes statement A's and B's records one ordered pair at a time, as
record objects were once made and then written as dicts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from hypothesis import strategies as st

from charprod import catalog
from charprod.charops import ClassFunction, kernel_classes
from charprod.chartab import (
    CharacterTable,
    _lift_degree,
    _lift_values,
    _value_lift,
    class_constants,
)
from charprod.cyclotomic import (
    Cyclotomic,
    _poly_mul,
    conjugate,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    factorize,
    fits,
    gram,
    matmul_exact,
    multiply,
)
from charprod.errors import CharprodError, EigensplitStall
from charprod.modular import (
    charpoly_mod,
    find_prime,
    inv_mod,
    nth_root_of_unity,
    nullspace_mod,
    poly_roots_mod,
    solve_columns_mod,
)
from charprod.perm import Permutation, Subgroup, direct_product, group_closure, parse_generators


# -- exact cyclotomic arithmetic, one value at a time -----------------------------


@lru_cache(maxsize=None)
def moebius(n):
    result = 1
    for _, m in factorize(n):
        if m > 1:
            return 0
        result = -result
    return result


@lru_cache(maxsize=None)
def _trace_table(e):
    """Normalized traces of the power basis: Tr(zeta_e^i) / phi(e)."""
    out = []
    for i in range(euler_phi(e)):
        f = e // math.gcd(i, e)
        out.append(Fraction(moebius(f), euler_phi(f)))
    return tuple(out)


class ExactCyclotomic(Cyclotomic):
    """An element of Q(zeta_e) with the field operations, computed one value at
    a time on Python integers: the exact reference for the engine's
    coefficient arrays.  The constructor reduces any integer polynomial in
    zeta_e over a denominator to canonical form."""

    __slots__ = ("_hash",)

    def __init__(self, order, num, den=1):
        order = int(order)
        if order < 1:
            raise ValueError("order must be positive")
        super().__init__(*_reduce(list(num), int(den), order))
        self._hash = None

    @classmethod
    def of(cls, value):
        """The exact value of an int, a Fraction or a Cyclotomic."""
        if isinstance(value, Cyclotomic):
            return value if isinstance(value, cls) else cls(value.order, value.num, value.den)
        value = Fraction(value)
        return cls(1, (value.numerator,), value.denominator)

    @classmethod
    def zero(cls, order=1):
        return cls(order, (0,) * euler_phi(order), 1)

    @classmethod
    def one(cls, order=1):
        num = [0] * euler_phi(order)
        num[0] = 1
        return cls(order, num, 1)

    @property
    def coeffs(self):
        """Canonical coefficients as exact rationals."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # ring structure

    def _coerced(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = ExactCyclotomic.of(other)
        else:
            return None, None
        if self.order == other.order:
            return self, other
        e = math.lcm(self.order, other.order)
        return self.embed(e), other.embed(e)

    def __add__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return ExactCyclotomic(a.order, [fa * x + fb * y for x, y in zip(a.num, b.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return ExactCyclotomic(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        return ExactCyclotomic(a.order, _poly_mul(a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers not supported; use conj for roots of unity")
        result = ExactCyclotomic.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self):
        """Complex conjugation: the Galois map zeta_e -> zeta_e^(-1)."""
        e = self.order
        num = [0] * e
        for i, c in enumerate(self.num):
            num[(e - i) % e] += c
        return ExactCyclotomic(e, num, self.den)

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def norm_squared(self):
        """z * conj(z); a totally nonnegative real value."""
        return self * self.conj()

    # order changes

    def embed(self, order):
        """The same value viewed in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        step = order // self.order
        num = [0] * (len(self.num) * step)
        for i, c in enumerate(self.num):
            num[i * step] = c
        return ExactCyclotomic(order, num, self.den)

    def reduce_to(self, order):
        """Express the value in Q(zeta_order) (order | self.order), else None."""
        if order == self.order:
            return self
        if self.order % order:
            raise ValueError(f"{order} does not divide {self.order}")
        basis = [root_of_unity(order, k).embed(self.order) for k in range(euler_phi(order))]
        matrix = [[b.coeffs[r] for b in basis] for r in range(len(self.num))]
        solution = _solve_exact(matrix, self.coeffs)
        if solution is None:
            return None
        den = _lcm_den(solution)
        return ExactCyclotomic(order, [f.numerator * (den // f.denominator) for f in solution], den)

    def minimal(self):
        """The equal value at the smallest possible cyclotomic order."""
        for d in divisors(self.order):
            reduced = self.reduce_to(d)
            if reduced is not None:
                return reduced
        return self

    # comparisons

    def __eq__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # Embedding-invariant: rationals hash as Fractions, everything else by
        # normalized traces of z and |z|^2 (equal values in different orders agree).
        if self._hash is None:
            r = self.as_rational()
            if r is not None:
                self._hash = hash(r)
            else:
                self._hash = hash((self._normalized_trace(), self.norm_squared()._normalized_trace()))
        return self._hash

    def _normalized_trace(self):
        total = Fraction(0)
        for c, t in zip(self.num, _trace_table(self.order)):
            if c:
                total += c * t
        return total / self.den

    def approx(self):
        """Complex float approximation, display only."""
        total = 0j
        for i, c in enumerate(self.num):
            if c:
                angle = 2.0 * math.pi * i / self.order
                total += c * complex(math.cos(angle), math.sin(angle))
        return total / self.den


def exact(value):
    """Shorthand for ExactCyclotomic.of."""
    return ExactCyclotomic.of(value)


def exact_values(f):
    """The values of a ClassFunction as ExactCyclotomic objects."""
    return tuple(exact(v) for v in f.values)


def _lcm_den(fractions):
    return math.lcm(*(f.denominator for f in fractions)) if fractions else 1


def _reduce(num, den, e):
    """Canonicalize a polynomial in zeta_e with integer coefficients over den."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        den = -den
        num = [-c for c in num]
    # fold exponents modulo e, then reduce modulo Phi_e
    if len(num) > e:
        folded = [0] * e
        for i, c in enumerate(num):
            folded[i % e] += c
        num = folded
    phi = euler_phi(e)
    poly = cyclotomic_polynomial(e)
    for i in range(len(num) - 1, phi - 1, -1):
        c = num[i]
        if c:
            num[i] = 0
            for j in range(phi):
                num[i - phi + j] -= c * poly[j]
    num = num[:phi]
    num.extend([0] * (phi - len(num)))
    g = math.gcd(den, *num)
    if g > 1:
        den //= g
        num = [c // g for c in num]
    return e, tuple(num), den


def _solve_exact(matrix, target):
    """Solve matrix @ x = target over Q; None when inconsistent.

    matrix is rows x cols with cols <= rows and full column rank.
    """
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    aug = [[Fraction(matrix[r][c]) for c in range(cols)] + [Fraction(target[r])] for r in range(rows)]
    pivot_row = 0
    pivots = []
    for col in range(cols):
        sel = next((r for r in range(pivot_row, rows) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[pivot_row], aug[sel] = aug[sel], aug[pivot_row]
        inv = 1 / aug[pivot_row][col]
        aug[pivot_row] = [v * inv for v in aug[pivot_row]]
        for r in range(rows):
            if r != pivot_row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    if pivot_row < cols:
        raise ArithmeticError("basis matrix not of full column rank")
    for r in range(pivot_row, rows):
        if aug[r][cols] != 0:
            return None
    solution = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        solution[col] = aug[r][cols]
    return solution


def root_of_unity(e, k):
    """zeta_e^k in canonical form."""
    if e < 1:
        raise ValueError("order must be positive")
    k %= e
    num = [0] * (k + 1)
    num[k] = 1
    return ExactCyclotomic(e, num, 1)


def from_text(text):
    """Parse the to_text rendering back into a value."""
    text = text.strip()
    if text.startswith("z(") and text.endswith(")"):
        head, _, body = text[2:-1].partition(";")
        coeffs = [Fraction(part) for part in body.split(",")] if body else []
        den = _lcm_den(coeffs)
        return ExactCyclotomic(int(head), [f.numerator * (den // f.denominator) for f in coeffs], den)
    return ExactCyclotomic.of(Fraction(text))


def value_text_reference(order, num, den=1):
    """The text of one value through Fraction: the reference for
    ``cyclotomic.value_text``."""
    if not any(num[1:]):
        return str(Fraction(num[0], den))
    return f"z({order};{','.join(str(Fraction(c, den)) for c in num)})"


def value_json_reference(order, num, den=1):
    """The JSON of one value through Fraction: the reference for
    ``cyclotomic.value_json``."""
    r = Fraction(num[0], den)
    if not any(num[1:]) and r.denominator == 1:
        return int(r)
    return value_text_reference(order, num, den)


def orthogonality_defect_reference(table):
    """Exact residuals of both orthogonality relations, each from its own
    ``gram``, the largest entry of each that fails; empty dict if clean: the
    reference for ``chartab._orthogonality_defect``, which leaves out the
    column relation of a square table whose rows are clean."""
    group = table.group
    order, tensor = table.coefficient_tensor()
    conj = tensor[:, group.inverse_class()]
    relations = (
        ("rows", gram(tensor * group.class_sizes[:, None], conj, order), group.order),
        ("columns", gram(tensor.transpose(1, 0, 2), conj.transpose(1, 0, 2), order), group.order // group.class_sizes),
    )
    defects = {}
    for name, residual, diagonal in relations:
        n = np.arange(len(residual))
        residual[n, n, 0] -= diagonal
        if residual.any():
            defects[name] = int(np.abs(residual).max())
    return defects


def prime_ideal_short_vector(order, q, z):
    """A short nonzero coefficient vector a (power basis of Q(zeta_order)) of
    an element in the prime (q, zeta - z) of Z[zeta]: sum_t a_t z^t = 0 mod q.
    The first vector of an exact LLL reduction (delta 3/4, Fractions) of that
    lattice of index q, so about q^(1/phi) in size."""
    phi = euler_phi(order)
    basis = [[q] + [0] * (phi - 1)] + [
        [-pow(z, t, q)] + [int(t == s) for s in range(1, phi)] for t in range(1, phi)
    ]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def orthogonalized():
        stars, mu = [], [[Fraction(0)] * phi for _ in range(phi)]
        for i, row in enumerate(basis):
            star = [Fraction(x) for x in row]
            for j in range(i):
                mu[i][j] = dot(row, stars[j]) / dot(stars[j], stars[j])
                star = [x - mu[i][j] * y for x, y in zip(star, stars[j])]
            stars.append(star)
        return stars, mu

    k = 1
    stars, mu = orthogonalized()
    while k < phi:
        for j in range(k - 1, -1, -1):
            r = round(mu[k][j])
            if r:
                basis[k] = [x - r * y for x, y in zip(basis[k], basis[j])]
                stars, mu = orthogonalized()
        if dot(stars[k], stars[k]) >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * dot(stars[k - 1], stars[k - 1]):
            k += 1
        else:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            stars, mu = orthogonalized()
            k = max(k - 1, 1)
    return min(basis, key=lambda v: dot(v, v))


def induce_by_summation(f, ctx):
    """Induction by the raw Frobenius sum over the whole parent group, on
    exact values: an independent cross-check of the engine's classwise form."""
    parent = ctx.parent
    values = exact_values(f)
    out = []
    for rep in parent.class_reps.tolist():
        total = ExactCyclotomic.zero()
        for si in ctx.from_parent[parent.conjugates(rep, np.arange(parent.order))].tolist():
            if si >= 0:
                total = total + values[ctx.group.class_of[si]]
        out.append(total * Fraction(1, ctx.group.order))
    return ClassFunction(parent, out)


def stabilizer_and_orbit_oracle(f, ctx):
    """The stabilizer of a class function f on a normal subgroup under
    conjugation by the parent, as an element set, and the orbit as exact value
    tuples in the order of the first parent element giving each: one
    ``Group.conjugates`` per parent element, of the class representatives,
    mapped back into the subgroup by their image rows."""
    parent, sub = ctx.parent, ctx.group
    values = exact_values(f)
    reps = [parent.element_index(sub.element(r)) for r in sub.class_reps.tolist()]
    stabilizer, orbit = set(), []
    for g in range(parent.order):
        image = tuple(
            values[sub.class_of[sub.element_index(parent.element(x))]]
            for x in parent.conjugates(reps, g).tolist()
        )
        if image == values:
            stabilizer.add(g)
        if image not in orbit:
            orbit.append(image)
    return frozenset(stabilizer), orbit


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


def level_closure_reference(group, seed):
    """The earlier subgroup closure, kept as the reference for
    ``Group._closure_indices``: the same greedy scan of the ascending seed,
    but each kept generator re-closes from the identity one breadth-first
    level at a time (the products of a level by the generators, first
    occurrences of the unseen ones in (position, generator) order).  Returns
    (elements, kept generators, presentation)."""
    inside = np.zeros(group.order, dtype=bool)
    inside[0] = True
    gens, order, rows = [], np.zeros(1, dtype=np.intp), [np.zeros((1, 0), dtype=np.intp)]
    for s in sorted(set(seed)):
        if inside[s]:
            continue
        gens.append(int(s))
        level, levels, rows = order[:1], [order[:1]], []
        inside[1:] = False
        while level.size:
            rows.append(group.products(level[:, None], gens))
            found = rows[-1].ravel()
            _, first = np.unique(found, return_index=True)
            level = found[np.sort(first[~inside[found[first]]])]
            inside[level] = True
            levels.append(level)
        order = np.concatenate(levels)
    return order, gens, np.concatenate(rows)


def promotion_reference(parent, subgroup):
    """The earlier promotion of a proper subgroup, kept as the reference: the
    breadth-first closure of its greedy generators as permutations, each
    element then located in the parent by its image row.  Returns the Group
    and its ``to_parent`` array."""
    gens = [parent.element(i) for i in subgroup.generators() or (0,)]
    group = group_closure(gens)
    return group, parent.indices_of(group.images)


def base_oracle(group):
    """Points in ascending order, each kept when the elements show more
    distinct images on the points kept so far and it, until every element is
    told apart."""
    rows = group.images.tolist()
    base, count = [], 1
    for point in range(group.degree):
        if count == len(rows):
            break
        grown = len({tuple(row[q] for q in base + [point]) for row in rows})
        if grown > count:
            base.append(point)
            count = grown
    return base


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
    class_of_rep = {r: k for k, r in enumerate(group.class_reps.tolist())}
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
        orbit = sorted(set(group.conjugates(i, np.arange(group.order)).tolist()))
        for x in orbit:
            seen[x] = True
        classes.append(tuple(orbit))
    return classes


def orbit_labels_oracle(n, perms):
    """Orbits on range(n) of the maps given as lists, by depth-first search:
    (orbit label of every point, least point of every orbit), orbits numbered
    by their least point."""
    label = [-1] * n
    least = []
    for start in range(n):
        if label[start] >= 0:
            continue
        current = len(least)
        least.append(start)
        label[start] = current
        stack = [start]
        while stack:
            x = stack.pop()
            for p in perms:
                y = p[x]
                if label[y] < 0:
                    label[y] = current
                    stack.append(y)
    return label, least


def class_closure(group, class_indices, _memo=None):
    """Subgroup closure of a union of classes, as a frozenset of classes."""
    key = frozenset(class_indices)
    if _memo is not None and key in _memo:
        return _memo[key]
    mul = cayley_table(group)
    members = {0} | {x for x, c in enumerate(group.class_of.tolist()) if c in key}
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


def pairwise_lattice_reference(group, table):
    """The normal lattice as the engine built it by pairwise intersection of
    frozensets: kernels of the irreducibles plus G, closed until nothing new
    appears; (members as ascending element-index tuples, class sets), sorted
    by order, then element indices."""
    found = {frozenset(kernel_classes(chi)) for chi in table.irreducibles}
    found.add(frozenset(range(group.num_classes)))
    frontier = list(found)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(found):
                c = a & b
                if c not in found:
                    found.add(c)
                    fresh.append(c)
        frontier = fresh
    members = [(tuple(group.class_members(list(cs)).tolist()), cs) for cs in found]
    members.sort(key=lambda pair: (len(pair[0]), pair[0]))
    return [m for m, _ in members], [cs for _, cs in members]


def subgroup_sorted_lattice(group, table):
    """The normal lattice as the engine first sorted it: the bitmask closure
    of the kernels (G included), one Subgroup per member, sorted by (order,
    ascending element tuple); (Subgroups, class sets as frozensets)."""
    _, tensor = table.coefficient_tensor()
    kernels = np.packbits((tensor == tensor[:, :1]).all(axis=2), axis=1, bitorder="little")
    m, width = group.num_classes, kernels.shape[1]
    found = {(1 << m) - 1}
    for k in {int.from_bytes(row.tobytes(), "little") for row in kernels}:
        found |= {k & x for x in found}
    packed = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in found), np.uint8).reshape(-1, width)
    masks = np.unpackbits(packed, axis=1, count=m, bitorder="little").astype(bool)
    members = [(Subgroup(group, group.class_members(mask)), frozenset(np.flatnonzero(mask).tolist())) for mask in masks]
    members.sort(key=lambda pair: (pair[0].order, pair[0].element_indices))
    return [m for m, _ in members], [cs for _, cs in members]


def class_sets(masks):
    """The class set (a frozenset of class indices) of each boolean row."""
    return [frozenset(np.flatnonzero(row).tolist()) for row in masks]


def normal_closure_sets_reference(table, members):
    """V(chi) per irreducible of ``table``: the first of ``members`` (class
    sets in lattice order) holding supp chi, the classes where the exact
    value of chi is not zero."""
    out = []
    for chi in table.irreducibles:
        support = frozenset(k for k, v in enumerate(exact_values(chi)) if v)
        out.append(next(cs for cs in members if support <= cs))
    return out


def chief_factor_scan(members, z, p):
    """The members Y with Z < Y and |Y : Z| = p, by element sets, in order."""
    return [y for y in members if y.order == z.order * p and z.element_set < y.element_set]


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
        members = {x for x, c in enumerate(group.class_of.tolist()) if mask >> c & 1}
        if all(mul[a][b] in members for a in members for b in members):
            out.add(frozenset(classes))
    return out


# -- the product tensor and the pair records, one ordered pair at a time ------------


def pair_rows(session):
    """{(chi, psi): row of chi psi} over every ordered pair, read off the
    session's pair rows at the position of (min, max) in ``np.triu_indices``."""
    n = len(session.eta)
    rows = dict(zip(zip(*(x.tolist() for x in np.triu_indices(n))), session.products))
    return {(i, j): rows[min(i, j), max(i, j)] for i in range(n) for j in range(n)}


def products_reference(session):
    """(a, eta) as ``GroupSession.products`` made them from every ordered
    pair: a[i, j, t] the multiplicity of irreducible t in chi_i chi_j, from
    the session's modular image, with the bound, the degree identity and
    the principal constituent of chi conj(chi) checked on all n^2 rows, in
    that order, raising the engine's CharprodError."""
    v, q = session.values, session.q
    n, m = v.shape
    pv = v[:, None, :] * v[None, :, :] % q * session.group.class_sizes[None, None, :] % q
    flat = matmul_exact(pv.reshape(n * n, m), v[:, session.group.inverse_class()].T)
    a = (flat % q * inv_mod(session.group.order, q) % q).reshape(n, n, n)
    if int(a.max()) > session.bound:
        raise CharprodError("product multiplicity exceeded its a-priori bound")
    degs = session.degrees
    if not np.array_equal(matmul_exact(a, degs), np.outer(degs, degs)):
        raise CharprodError("product decompositions fail the degree identity")
    if any(int(a[i, session.table.conjugate_index(i), 0]) != 1 for i in range(n)):
        raise CharprodError("principal character missing from chi * conj(chi)")
    return a, (a > 0).sum(axis=2)


def center_sets_reference(order, tensor):
    """Per row of ``tensor`` (rows, classes, phi(order)), the coefficients of
    a character at ``order`` (over any one denominator), the classes where
    |chi(g)|^2 = chi(1)^2, by the exact norm chi(g) conj(chi(g)) of every
    value against the square of the class-0 coefficient."""
    norms = multiply(tensor, conjugate(tensor, order), order)
    on_center = (norms[:, :, 0] == tensor[:, :1, 0] ** 2) & ~norms[:, :, 1:].any(axis=2)
    return [frozenset(np.flatnonzero(row).tolist()) for row in on_center]


def pair_records_reference(statement, session, verdicts):
    """Statement A's or B's records one ordered pair (chi, psi) at a time: a
    skipped duplicate when chi > psi, hypothesis-not-met when eta(chi psi)
    >= p, else a pass, or a failure with the witness ``verdicts`` holds."""
    eta = session.eta
    records = []
    for i in range(len(eta)):
        for j in range(len(eta)):
            record = {"statement": statement, "instance": {"chi": i, "psi": j}}
            if i > j:
                record.update(status="skipped", witness={"duplicate_of": [j, i]})
            elif eta[i, j] >= session.p:
                record.update(status="hypothesis-not-met", witness={"eta": int(eta[i, j])})
            elif verdicts.get((i, j)) is None:
                record.update(status="pass")
            else:
                record.update(status="fail", witness=verdicts[i, j])
            records.append(record)
    return records


# -- statement A, one pair at a time -----------------------------------------------


def theorem_A_reference(session):
    """Statement A's verdicts as the engine decided them one pair at a time:
    {(chi, psi): witness} over the pairs chi <= psi in the hypothesis, with
    frozenset class sets read off the session's masks, V(chi psi) the first
    lattice member containing supp chi & supp psi, and the constituents
    taken ascending, the Z test before the V test."""
    rows = pair_rows(session)
    eta = session.eta
    zsets, supports, vsets = (class_sets(masks) for masks in (session.zmasks, session.supports, session.vmasks))
    members = class_sets(session.lattice.masks)
    verdicts = {}
    for i in range(len(eta)):
        for j in range(i, len(eta)):
            if eta[i, j] >= session.p:
                continue
            z_prod = zsets[i] & zsets[j]
            v_prod = next(cs for cs in members if supports[i] & supports[j] <= cs)
            bad = None
            if not v_prod <= vsets[i] & vsets[j]:
                bad = {"reason": "V(chi psi) escapes V(chi) & V(psi)"}
            else:
                for t in np.nonzero(rows[i, j])[0].tolist():
                    if zsets[t] != z_prod:
                        bad = {"theta": t, "reason": "Z(chi psi) != Z(theta)",
                               "z_product_classes": sorted(z_prod),
                               "z_theta_classes": sorted(zsets[t])}
                        break
                    if not vsets[t] <= v_prod:
                        bad = {"theta": t, "reason": "V(theta) escapes V(chi psi)"}
                        break
            if bad is not None:
                bad["eta"] = int(eta[i, j])
                verdicts[i, j] = bad
    return verdicts


# -- statement B, one normal subgroup at a time -----------------------------------


def theorem_B_reference(session):
    """Statement B's verdicts as the engine decided them with one product per
    normal subgroup: {(chi, psi): witness} over the pairs in the hypothesis,
    the first normal subgroup in lattice order deciding.  Both verdict
    branches are kept, including the one the engine proves unreachable
    ("gamma^G has constituents outside chi psi")."""
    p = session.p
    rows = pair_rows(session)
    eta = session.eta
    n = len(session.table.irreducibles)
    normals = session.normal_data

    pi, pj = np.triu_indices(n)
    keep = eta[pi, pj] < p
    pi, pj = pi[keep], pj[keep]
    pairs = list(zip(pi.tolist(), pj.tolist()))
    # which irreducibles occur in each product chi psi
    occurs = np.array([rows[pair] > 0 for pair in pairs], dtype=bool).reshape(len(pairs), n)
    verdicts = {}
    for data in normals:
        if not pairs:
            continue
        r = data["R"]
        over = r > 0
        relevant = data["inducer_exists"][pi] | data["inducer_exists"][pj]
        # under[k, gamma]: how many constituents of pair k lie over gamma
        under = matmul_exact(occurs, over)
        bad_cols = data["col_support"] != 1
        if data["normal_index"] == p:
            bad_cols = bad_cols | (data["single_mult"] != 1)
        if bad_cols.any():
            touches = under[:, bad_cols] > 0
            for row in np.nonzero(touches.any(axis=1) & relevant)[0]:
                if pairs[row] not in verdicts:
                    bad_local = np.nonzero(bad_cols)[0][np.nonzero(touches[row])[0]]
                    gamma = int(bad_local[0])
                    verdicts[pairs[row]] = {
                        "normal": data["index"],
                        "normal_order": data["member"].order,
                        "gamma": gamma,
                        "eta_gamma_induced": int(data["col_support"][gamma]),
                    }
        # proof-level consistency: each gamma under (chi psi)_N induces inside
        # the constituents of chi psi itself
        outside = over.sum(axis=0) - under > 0
        lies_under = under > 0
        broken = (lies_under & outside).any(axis=1) & relevant
        for row in np.nonzero(broken)[0]:
            if pairs[row] not in verdicts:
                gamma = int(np.nonzero(lies_under[row] & outside[row])[0][0])
                verdicts[pairs[row]] = {
                    "normal": data["index"],
                    "normal_order": data["member"].order,
                    "gamma": gamma,
                    "reason": "gamma^G has constituents outside chi psi",
                }
    return verdicts


# -- exact table oracle ----------------------------------------------------------


def _inner(group, a, b):
    total = ExactCyclotomic.zero()
    for size, av, bv in zip(group.class_sizes.tolist(), a, b):
        term = av * bv.conj()
        if term:
            total = total + size * term
    r = (total * Fraction(1, group.order)).as_rational()
    assert r is not None, "oracle inner product must be rational"
    return r


def _induce_from(group, sub_elements, values_by_element):
    """Frobenius induction by raw summation over the whole group."""
    mul = cayley_table(group)
    inv = [row.index(0) for row in mul]
    out = []
    for rep in group.class_reps.tolist():
        total = ExactCyclotomic.zero()
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

    add(tuple(ExactCyclotomic.one() for _ in range(group.num_classes)))
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
            root_of_unity(exponent, lam[coset_of[rep]])
            for rep in group.class_reps.tolist()
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
        m = exact(v).minimal()
        out.append((m.order, m.num, m.den))
    return tuple(out)


def row_sort_key(chi):
    """The order of the rows of a table after the principal one: by degree,
    then by all coefficients, row-major (rows of a table have denominator 1,
    so this orders them as the values do)."""
    return (int(chi.num[0, 0]), tuple(chi.num.ravel().tolist()))


def split_in_index_order(group, q, basis, pivots):
    """The common eigenspaces of the class matrices inside ``basis``, split by
    applying the matrices in ascending class index: the engine's split before
    it took the classes in ascending size, kept as the reference for the
    lines it finds (each up to a scalar)."""
    m = group.num_classes
    fits(m * (q - 1) ** 2)
    spaces = [(basis, pivots)]
    for i in range(1, m):
        wide = [basis for basis, pivots in spaces if len(pivots) > 1]
        if not wide:
            break
        images = matmul_exact(class_constants(group, i) % q, np.hstack(wide)) % q
        refined, start = [], 0
        for basis, pivots in spaces:
            k = len(pivots)
            if k == 1:
                refined.append((basis, pivots))
                continue
            block = images[:, start:start + k]
            start += k
            if np.array_equal(block, block[pivots[0], 0] * basis % q):
                refined.append((basis, pivots))
                continue
            action = solve_columns_mod(basis, pivots, block, q)
            eye = np.eye(k, dtype=np.int64)
            kernels = [nullspace_mod(action - lam * eye, q) for lam in poly_roots_mod(charpoly_mod(action, q), q)]
            if not kernels:
                raise EigensplitStall("a class matrix has no eigenvalue mod q on a joint eigenspace")
            split = matmul_exact(basis, np.hstack([kernel for kernel, _ in kernels])) % q
            done = 0
            for _, free in kernels:
                refined.append((split[:, done:done + free.size], pivots[free]))
                done += free.size
        spaces = refined
    if any(len(pivots) != 1 for _, pivots in spaces):
        raise EigensplitStall("class matrices left a joint eigenspace unsplit")
    return [basis[:, 0] for basis, _ in spaces]


def unseeded_table(group):
    """The table by the Dixon-Schneider split of all of GF(q)^m in class index
    order, with no row known before the split and no start from the central
    characters: the engine's build before linear characters seeded it, kept
    as the reference for the seeded build.  The same lift, row order and
    exact checks as ``dixon_table``."""
    m = group.num_classes
    exponent = group.exponent
    if m == 1:
        return CharacterTable(group, 1, np.ones((1, 1, 1), dtype=np.int64))

    q = find_prime(exponent, 2 * math.isqrt(group.order - 1) + 2)
    z = nth_root_of_unity(q, exponent)
    vectors = split_in_index_order(group, q, np.eye(m, dtype=np.int64), np.arange(m))
    lift = _value_lift(group, q, z)

    vectors = np.stack(vectors)
    assert vectors[:, 0].all(), "central character vanishes on the identity class"
    omegas = vectors * np.array([inv_mod(v, q) for v in vectors[:, 0].tolist()])[:, None] % q
    degrees = _lift_degree(omegas, group, q, lift)
    step = max(1, m // exponent)
    tensor = np.empty((m, m, euler_phi(exponent)), dtype=np.int64)
    for i in range(0, m, step):
        tensor[i:i + step] = _lift_values(omegas[i:i + step], degrees[i:i + step], q, lift)

    other = (tensor != np.eye(1, tensor.shape[-1], dtype=np.int64)).any(axis=(1, 2))
    assert m - other.sum() == 1, "principal character missing from the lifted table"
    keys = tensor.reshape(m, -1).T[::-1]
    table = CharacterTable(group, exponent, tensor[np.lexsort((*keys, other))])
    assert sum(d * d for d in table.degrees) == group.order
    assert not orthogonality_defect_reference(table)
    return table


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
    regular = [ExactCyclotomic.of(group.order)] + [ExactCyclotomic.zero()] * (m - 1)
    total = [ExactCyclotomic.zero()] * m
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


def rref_reference(matrix, q):
    """Reduced row echelon form over GF(q) on Python integers, one row
    operation at a time; returns (rows, pivot columns)."""
    m = [[int(v) % q for v in row] for row in matrix]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][c], q - 2, q)
        m[r] = [v * inv % q for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


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
    value = exact(value)
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


@st.composite
def generator_sets(draw, max_degree=6):
    """One to three random permutations of degree n <= max_degree: the
    generators of a random subgroup of S_n."""
    n = draw(st.integers(1, max_degree))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return [Permutation(p) for p in perms]


WREATH_C9_C3 = "(1 2 3 4 5 6 7 8 9)\n" + "".join(f"({i} {i + 9} {i + 18})" for i in range(1, 10))
SYLOW_2_S8 = "(1 2)\n(1 3)(2 4)\n(1 5)(2 6)(3 7)(4 8)"


@lru_cache(maxsize=None)
def p_group_ambients():
    """The ambients of ``small_p_groups``: wreath3 x heisenberg3 (order 2187),
    C9 wr C3 (order 2187, not a direct product) and the Sylow 2-subgroup of
    S8 (order 128)."""
    wreath3, heisenberg3 = (catalog.parse_group(catalog.spec_for(gid).generators) for gid in ("wreath3", "heisenberg3"))
    product = direct_product(wreath3, heisenberg3)
    return (product,) + tuple(group_closure(parse_generators(text)[0]) for text in (WREATH_C9_C3, SYLOW_2_S8))


@st.composite
def small_p_groups(draw, cap=729):
    """A random p-group of order at most ``cap``: the closure of a 1-3
    element seed drawn in one of ``p_group_ambients``, each element kept only
    when the closure with it stays within the cap (the first, a cyclic
    group, always does)."""
    ambient = draw(st.sampled_from(p_group_ambients()))
    gens, group = [], None
    for i in draw(st.lists(st.integers(0, ambient.order - 1), min_size=1, max_size=3)):
        closure = group_closure(gens + [ambient.element(i)])
        if closure.order <= cap:
            gens, group = gens + [ambient.element(i)], closure
    return group
