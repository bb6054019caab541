"""Class-function arithmetic and the character-theoretic operators: products,
decomposition, centers, kernels, vanishing-off subgroups, restriction,
induction, conjugation orbits and Clifford correspondents.

All decision logic is exact; nothing here touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import (
    Cyclotomic,
    max_abs,
    conjugate,
    embed,
    fits,
    format_distinct,
    gram,
    int64_array,
    matmul_exact,
    multiply,
    root_exponents,
    value_json,
    value_text,
)
from .errors import (
    CharprodError,
    GroupMismatch,
    IntegralityViolation,
    NoCorrespondent,
    NotACharacter,
    NotNormal,
    NotUnique,
)
from .perm import Group, Subgroup


class ClassFunction:
    """A function on conjugacy classes with exact cyclotomic values.

    Stored as its group, its cyclotomic ``order`` (the lcm of the group's
    exponent and the orders of the values it was made from) and one int64
    coefficient array ``num`` of shape (classes, phi(order)) over one positive
    denominator ``den``, in canonical form: reduced modulo Phi_order, with no
    common factor of ``den`` and all numerators.  ``values`` gives the values
    as Cyclotomic objects; the text formats write the coefficient rows."""

    __slots__ = ("group", "order", "num", "den")

    def __init__(self, group, values):
        if len(values) != group.num_classes:
            raise ValueError("one value per conjugacy class required")
        parts = []
        for v in values:
            if not isinstance(v, Cyclotomic):
                v = Fraction(v)
                v = Cyclotomic(1, (v.numerator,), v.denominator)
            parts.append(v)
        order = math.lcm(*(v.order for v in parts))
        den = math.lcm(*(v.den for v in parts))
        rows = [embed(int64_array([c * (den // v.den) for c in v.num]), v.order, order) for v in parts]
        self._assign(group, order, np.stack(rows), den)

    @classmethod
    def from_coefficients(cls, group, order, num, den=1):
        """The class function with coefficients ``num`` (one row per class) at
        ``order`` over ``den``, embedded at lcm(group exponent, order)."""
        f = cls.__new__(cls)
        f._assign(group, order, num, den)
        return f

    def _assign(self, group, order, num, den):
        target = math.lcm(group.exponent, order)
        num = embed(num, order, target)
        g = math.gcd(den, int(np.gcd.reduce(num, axis=None)))
        if g > 1:
            num, den = num // g, den // g
        num.flags.writeable = False
        self.group, self.order, self.num, self.den = group, target, num, den

    def _value(self, j):
        row = self.num[j].tolist()
        g = math.gcd(self.den, *row)
        return Cyclotomic(self.order, [c // g for c in row], self.den // g)

    @property
    def values(self):
        """The values as Cyclotomic objects, one per class, built on demand."""
        return tuple(self._value(j) for j in range(len(self.num)))

    def degree(self):
        return self._value(0)

    def _at_common_order(self, other):
        """(order, self's coefficients, other's coefficients) at the lcm of
        the two orders."""
        if other.group is not self.group:
            raise GroupMismatch("class functions live on different groups")
        order = math.lcm(self.order, other.order)
        return order, embed(self.num, self.order, order), embed(other.num, other.order, order)

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            order, x, y = self._at_common_order(other)
            return ClassFunction.from_coefficients(self.group, order, multiply(x, y, order), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            factor = other.numerator if self.num.any() else 0
            fits(max_abs(self.num) * abs(factor))
            return ClassFunction.from_coefficients(
                self.group, self.order, self.num * factor, self.den * other.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def _combine(self, other, sign):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        order, x, y = self._at_common_order(other)
        den = math.lcm(self.den, other.den)
        fx, fy = den // self.den, den // other.den
        fits(max(fx, fy) * (max_abs(x) + max_abs(y) + 1))
        return ClassFunction.from_coefficients(self.group, order, x * fx + sign * y * fy, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def conj(self):
        return ClassFunction.from_coefficients(self.group, self.order, conjugate(self.num, self.order), self.den)

    def is_zero(self):
        return not self.num.any()

    def value_key(self):
        """Hashable canonical key: order, denominator and coefficients."""
        return (self.order, self.den, self.num.tobytes())

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        if self.group is not other.group:
            return False
        _, x, y = self._at_common_order(other)
        return self.den == other.den and np.array_equal(x, y)

    def __hash__(self):
        # the classes where a value is nonzero do not depend on the order
        return hash((id(self.group), self.num.any(axis=1).tobytes()))

    def to_json(self):
        """``value_json`` of every value, each distinct value formatted once."""
        return format_distinct(self.num, lambda v: value_json(self.order, v, self.den))

    def __repr__(self):
        shown = ", ".join(value_text(self.order, row, self.den) for row in self.num[:6].tolist())
        more = ", ..." if len(self.num) > 6 else ""
        return f"ClassFunction([{shown}{more}])"


def principal_character(group):
    return ClassFunction(group, [1] * group.num_classes)


def product(a, b):
    """Pointwise product of class functions on one group."""
    if not isinstance(a, ClassFunction) or not isinstance(b, ClassFunction):
        raise TypeError("product expects class functions")
    return a * b


def inner_product(a, b, characters=False):
    """[a, b] = (1/|G|) sum over classes of |C| a(g) conj(b(g)), exactly.

    With characters=True the result is asserted to be a nonnegative integer.
    """
    return next(_inner_products(a.group, a.num[None], a.order, a.den, b, characters))


def _inner_products(g, rows, order, den, f, characters=False):
    """[row, f] for each row of ``rows``, the coefficients (rows, classes,
    phi(order)) over ``den`` of class functions on the group g, in row order:
    one exact Gram of the weighted rows against conj(f).  Each is checked as
    ``inner_product`` checks one, when it is taken; GroupMismatch, when the
    first is taken, unless f lives on g."""
    if f.group is not g:
        raise GroupMismatch("class functions live on different groups")
    target = math.lcm(order, f.order)
    x = embed(rows, order, target)
    fits(max_abs(x) * g.order)
    y = conjugate(embed(f.num, f.order, target), target)
    totals = gram(x * g.class_sizes[:, None], y[None], target)[:, 0]
    for total in totals:
        if total[1:].any():
            raise IntegralityViolation("inner product is not rational")
        rational = Fraction(int(total[0]), g.order * den * f.den)
        if characters and (rational.denominator != 1 or rational < 0):
            raise IntegralityViolation(f"character inner product {rational} is not a nonnegative integer")
        yield rational


@dataclass(frozen=True)
class Decomposition:
    """Constituents of a character over a table: (irreducible index, multiplicity)."""

    constituents: tuple

    @property
    def eta(self):
        return len(self.constituents)

    def reconstruct(self, table):
        """The sum of the constituents with their multiplicities."""
        order, tensor = table.coefficient_tensor()
        mult = np.zeros(len(tensor), dtype=np.int64)
        mult[[i for i, _ in self.constituents]] = [m for _, m in self.constituents]
        total = matmul_exact(mult, tensor.reshape(len(tensor), -1)).reshape(tensor.shape[1:])
        return ClassFunction.from_coefficients(table.group, order, total)

    def to_json(self, table):
        return {
            "eta": self.eta,
            "constituents": [
                {"irr_index": i, "degree": int(table.degrees[i]), "multiplicity": m}
                for i, m in self.constituents
            ],
        }


def decompose(f, table):
    """Full constituent list of a character; checks the reconstruction identity."""
    if f.group is not table.group:
        raise GroupMismatch("class function and table live on different groups")
    order, tensor = table.coefficient_tensor()
    constituents = []
    # [chi, f] is the conjugate of [f, chi]: the two are rational together
    for i, m in enumerate(_inner_products(f.group, tensor, order, 1, f)):
        if m == 0:
            continue
        if m.denominator != 1 or m < 0:
            raise NotACharacter(f"multiplicity of irreducible {i} is {m}")
        constituents.append((i, int(m)))
    dec = Decomposition(tuple(constituents))
    if dec.reconstruct(table) != f:
        raise NotACharacter("constituents do not re-sum to the input")
    return dec


def _class_union_subgroup(group, class_indices):
    sub = Subgroup(group, group.class_members(class_indices))
    sub.closure()  # NotASubgroup when the union does not close
    return sub


def center_masks(order, tensor):
    """Z(chi) of each character chi in ``tensor`` (..., classes, phi(order)),
    its positive degree in class 0: the boolean mask over the classes where
    chi(g) = chi(1) zeta^k, which are those where |chi(g)| = chi(1), as the
    chi(1) eigenvalues of g, powers of zeta since g^e = 1, then all agree.
    An exact division by the degree and ``root_exponents`` decide it."""
    degree = tensor[..., :1, :1]
    return (tensor % degree == 0).all(axis=-1) & (root_exponents(tensor // degree, order) >= 0)


def center_of(f):
    """Z(f) of a character f (``center_masks``), as a subgroup."""
    if f.num[0, 1:].any() or f.num[0, 0] <= 0:
        raise ValueError("the center needs f(1) to be a positive rational")
    return _class_union_subgroup(f.group, np.flatnonzero(center_masks(f.order, f.num)).tolist())


def kernel_classes(f):
    """The classes where f(g) = f(1)."""
    return np.flatnonzero((f.num == f.num[0]).all(axis=1)).tolist()


def kernel_of(f):
    """Ker(f): the classes where f(g) = f(1), as a (normal) subgroup."""
    return _class_union_subgroup(f.group, kernel_classes(f))


def vanishing_off(f):
    """V(f): the subgroup generated by all g with f(g) != 0."""
    if f.is_zero():
        raise ValueError("the zero class function vanishes everywhere")
    return f.group.subgroup(f.group.class_members(f.num.any(axis=1)).tolist())


def linear_characters(table):
    """The degree-1 irreducibles; count is checked against |G : G'|."""
    linears = [chi for chi, d in zip(table.irreducibles, table.degrees) if d == 1]
    expected = table.group.order // table.group.derived_subgroup().order
    if len(linears) != expected:
        raise CharprodError(
            f"found {len(linears)} linear characters but |G:G'| = {expected}"
        )
    return linears


# -- subgroup contexts, restriction and induction ------------------------------


class InducedContext:
    """A subgroup realized as its own Group and embedded in the parent by
    index arrays: ``to_parent[i]`` is the parent index of subgroup element i,
    ``from_parent[x]`` the subgroup index of parent element x (-1 off the
    subgroup), and ``fusion[c]`` the parent class of subgroup class c.  The
    subgroup's table is built when first read."""

    __slots__ = ("parent", "subgroup", "group", "fusion", "to_parent", "from_parent")

    def __init__(self, parent, subgroup, group, fusion, to_parent, from_parent):
        self.parent = parent
        self.subgroup = subgroup
        self.group = group
        self.fusion = fusion
        self.to_parent = to_parent
        self.from_parent = from_parent

    @classmethod
    def build(cls, parent, subgroup, subgroup_group=None):
        """Build the context for a subgroup of ``parent``, given as a Subgroup
        or as element indices.

        A proper subgroup is promoted from its one closure over the parent's
        indices, with the parent's inverses and element orders; a later one
        with the same presentation (``Group._closure_indices``) is a twin of
        the first, sharing its class arrays, orders, inverses, exponent and,
        when first read, table.  A given ``subgroup_group`` must have the
        subgroup's elements and be the cached group when there is one.  The
        cache is a thread-safe memo: one computation per element set, whose
        first Subgroup serves all.
        """
        if isinstance(subgroup, Subgroup):
            if subgroup.parent is not parent:
                raise GroupMismatch("subgroup belongs to a different parent")
        else:
            subgroup = Subgroup(parent, subgroup)
        key = subgroup.element_set
        with parent._promotion_lock:
            cached = parent._promotions.get(key)
            if cached is not None and subgroup_group not in (None, cached[1]):
                raise GroupMismatch("the subgroup was promoted earlier to another group")
            if cached is None:
                from_parent = np.full(parent.order, -1, dtype=np.intp)
                if subgroup_group is None and len(key) < parent.order:
                    gens, to_parent, table = subgroup.closure()
                    from_parent[to_parent] = np.arange(len(to_parent))
                    presentation = (len(gens), from_parent[table].tobytes())
                    twin = parent._presentations.get(presentation)
                    group = Group(None, parent.images[to_parent], list(range(1, len(gens) + 1)) or [0],
                                  from_parent[parent.inverses[to_parent]], parent._orders[to_parent], twin)
                    parent._presentations.setdefault(presentation, group)
                else:
                    group = parent if subgroup_group is None else subgroup_group
                    try:
                        to_parent = parent.indices_of(group.images) if group.degree == parent.degree else None
                    except KeyError:
                        to_parent = None
                    if to_parent is None or frozenset(to_parent.tolist()) != key:
                        raise GroupMismatch("the given group does not have the subgroup's elements")
                    from_parent[to_parent] = np.arange(group.order)
                fusion = parent.class_of[to_parent[group.class_reps]]
                for array in (fusion, to_parent, from_parent):
                    array.flags.writeable = False
                cached = (subgroup, group, fusion, to_parent, from_parent)
                parent._promotions[key] = cached
        return cls(parent, *cached)

    @property
    def table(self):
        from . import chartab  # deferred: chartab uses ClassFunction

        return chartab.dixon_table(self.group)

    def __repr__(self):
        return f"InducedContext(|H|={self.group.order}, |G|={self.parent.order})"


def restrict(f, ctx):
    """Pull a class function of the parent back along the class fusion."""
    if f.group is not ctx.parent:
        raise GroupMismatch("class function does not live on the context's parent")
    return ClassFunction.from_coefficients(ctx.group, f.order, f.num[ctx.fusion], f.den)


def induce(f, ctx):
    """Frobenius induction, computed classwise through the fusion map: the
    value on the parent class j is |C_G(g_j)| / |H| times the sum of |C| f(C)
    over the subgroup classes C fusing into j."""
    if f.group is not ctx.group:
        raise GroupMismatch("class function does not live on the context's subgroup")
    parent = ctx.parent
    sub = ctx.group
    if f.is_zero():
        return ClassFunction.from_coefficients(parent, 1, np.zeros((parent.num_classes, 1), dtype=np.int64))
    fits(max_abs(f.num) * sub.order)
    sums = np.zeros((parent.num_classes, f.num.shape[1]), dtype=np.int64)
    np.add.at(sums, ctx.fusion, f.num * sub.class_sizes[:, None])
    centralizers = parent.order // parent.class_sizes
    fits(max_abs(sums) * parent.order)
    return ClassFunction.from_coefficients(parent, f.order, sums * centralizers[:, None], sub.order * f.den)


def _conjugated_classes(ctx, g):
    """Row r: the subgroup class of g_r x g_r^(-1) for a representative x of
    each subgroup class, for the parent index array g; the subgroup must be
    normal."""
    reps = ctx.to_parent[ctx.group.class_reps]
    return ctx.group.class_of[ctx.from_parent[ctx.parent.conjugates(reps, g[:, None])]]


def conjugate_character(f, ctx, g_index):
    """f^g with f on a normal subgroup: f^g(x) = f(g x g^(-1))."""
    if not ctx.subgroup.is_normal:
        raise NotNormal("conjugate_character requires a normal subgroup")
    row = _conjugated_classes(ctx, np.array([g_index]))[0]
    return ClassFunction.from_coefficients(ctx.group, f.order, f.num[row], f.den)


def stabilizer_and_orbit(f, ctx):
    """The stabilizer of f under parent conjugation, with the full orbit in
    the order of the first parent element giving each conjugate."""
    if not ctx.subgroup.is_normal:
        raise NotNormal("stabilizer_and_orbit requires a normal subgroup")
    parent = ctx.parent
    conjugated = _conjugated_classes(ctx, np.arange(parent.order))
    # equal labels on two classes mean equal values there
    _, labels = np.unique(f.num, axis=0, return_inverse=True)
    labels = labels.reshape(-1)
    images = labels[conjugated]
    stab = Subgroup(parent, np.flatnonzero((images == labels).all(axis=1)))
    _, first = np.unique(images, axis=0, return_index=True)
    orbit = [
        ClassFunction.from_coefficients(ctx.group, f.order, f.num[conjugated[g]], f.den)
        for g in np.sort(first).tolist()
    ]
    if len(orbit) * stab.order != parent.order:
        raise CharprodError("orbit-stabilizer mismatch (engine bug)")
    return stab, orbit


def irr_lying_over(table, ctx, phi):
    """Indices of the irreducibles of the parent lying over phi in Irr(N):
    one Gram of phi against the table restricted along the class fusion."""
    if table.group is not ctx.parent:
        raise GroupMismatch("class function does not live on the context's parent")
    order, tensor = table.coefficient_tensor()
    over = _inner_products(ctx.group, tensor[:, ctx.fusion], order, 1, phi, characters=True)
    return [i for i, m in enumerate(over) if m]


def clifford_correspondent(chi, iota, ctx_y, ctx_stab):
    """The unique xi in Irr(G_iota) over iota with xi^G = chi.

    ctx_y realizes the normal subgroup Y carrying iota; ctx_stab realizes the
    stabilizer of iota.  The result is verified by explicit induction.
    """
    parent = ctx_stab.parent
    if chi.group is not parent:
        raise GroupMismatch("chi must live on the stabilizer context's parent")
    y_in_stab = InducedContext.build(
        ctx_stab.group, ctx_stab.from_parent[ctx_y.to_parent], subgroup_group=ctx_y.group
    )
    table = ctx_stab.table
    over = (table.irreducibles[i] for i in irr_lying_over(table, y_in_stab, iota))
    found = [xi for xi in over if induce(xi, ctx_stab) == chi]
    if not found:
        raise NoCorrespondent("no irreducible of the stabilizer induces to chi over iota")
    if len(found) > 1:
        raise NotUnique("several irreducibles of the stabilizer induce to chi over iota")
    return found[0]
