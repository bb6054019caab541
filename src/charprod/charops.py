"""Class-function arithmetic and the character-theoretic operators: products,
decomposition, centers, kernels, vanishing-off subgroups, restriction,
induction, conjugation orbits and Clifford correspondents.

All decision logic is exact; nothing here touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyclotomic
from .errors import (
    CharprodError,
    GroupMismatch,
    IntegralityViolation,
    NoCorrespondent,
    NotACharacter,
    NotASubgroup,
    NotNormal,
    NotUnique,
)
from .perm import Group, Subgroup


class ClassFunction:
    """A function on conjugacy classes with exact cyclotomic values."""

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        values = [v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v) for v in values]
        if len(values) != group.num_classes:
            raise ValueError("one value per conjugacy class required")
        order = math.lcm(group.exponent, *(v.order for v in values))
        self.group = group
        self.values = tuple(v.embed(order) for v in values)

    def degree(self):
        return self.values[0]

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            if other.group is not self.group:
                raise GroupMismatch("class functions live on different groups")
            return ClassFunction(self.group, [a * b for a, b in zip(self.values, other.values)])
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return ClassFunction(self.group, [a * other for a in self.values])
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        if other.group is not self.group:
            raise GroupMismatch("class functions live on different groups")
        return ClassFunction(self.group, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        if other.group is not self.group:
            raise GroupMismatch("class functions live on different groups")
        return ClassFunction(self.group, [a - b for a, b in zip(self.values, other.values)])

    def conj(self):
        return ClassFunction(self.group, [v.conj() for v in self.values])

    def is_zero(self):
        return all(v.is_zero() for v in self.values)

    def value_key(self):
        """Hashable canonical key (values at a common order)."""
        return tuple((v.order, v.num, v.den) for v in self.values)

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.group is other.group and all(a == b for a, b in zip(self.values, other.values))

    def __hash__(self):
        return hash((id(self.group), tuple(self.values)))

    def to_json(self):
        return [v.to_json() for v in self.values]

    def __repr__(self):
        shown = ", ".join(v.to_text() for v in self.values[:6])
        more = ", ..." if len(self.values) > 6 else ""
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
    if a.group is not b.group:
        raise GroupMismatch("class functions live on different groups")
    g = a.group
    total = Cyclotomic.zero()
    for cls, av, bv in zip(g.classes, a.values, b.values):
        term = av * bv.conj()
        if term:
            total = total + cls.size * term
    total = total * Fraction(1, g.order)
    rational = total.as_rational()
    if rational is None:
        raise IntegralityViolation("inner product is not rational")
    if characters and (rational.denominator != 1 or rational < 0):
        raise IntegralityViolation(f"character inner product {rational} is not a nonnegative integer")
    return rational


@dataclass(frozen=True)
class Decomposition:
    """Constituents of a character over a table: (irreducible index, multiplicity)."""

    constituents: tuple

    @property
    def eta(self):
        return len(self.constituents)

    def multiplicity(self, index):
        for i, m in self.constituents:
            if i == index:
                return m
        return 0

    @property
    def indices(self):
        return tuple(i for i, _ in self.constituents)

    def reconstruct(self, table):
        total = None
        for i, m in self.constituents:
            part = table.irreducibles[i] * m
            total = part if total is None else total + part
        if total is None:
            total = ClassFunction(table.group, [0] * table.group.num_classes)
        return total

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
    constituents = []
    for i, chi in enumerate(table.irreducibles):
        m = inner_product(f, chi)
        if m == 0:
            continue
        if m.denominator != 1 or m < 0:
            raise NotACharacter(f"multiplicity of irreducible {i} is {m}")
        constituents.append((i, int(m)))
    dec = Decomposition(tuple(constituents))
    if dec.reconstruct(table) != f:
        raise NotACharacter("constituents do not re-sum to the input")
    return dec


def _class_union_subgroup(group, class_indices, check=True):
    members = []
    for j in class_indices:
        members.extend(group.classes[j].members)
    sub = Subgroup(group, members)
    if check and group._closure_indices(members)[0].sum() != len(members):
        raise NotASubgroup("union of classes does not close under products")
    return sub


def center_of(f):
    """Z(f): the classes where |f(g)| equals f(1), as a subgroup."""
    if f.is_zero():
        raise ValueError("center of the zero class function is undefined")
    bound = f.degree() * f.degree().conj()
    classes = [j for j, v in enumerate(f.values) if v * v.conj() == bound]
    return _class_union_subgroup(f.group, classes)


def kernel_of(f):
    """Ker(f): the classes where f(g) = f(1), as a (normal) subgroup."""
    top = f.degree()
    classes = [j for j, v in enumerate(f.values) if v == top]
    return _class_union_subgroup(f.group, classes)


def vanishing_off(f):
    """V(f): the subgroup generated by all g with f(g) != 0."""
    if f.is_zero():
        raise ValueError("the zero class function vanishes everywhere")
    members = []
    for j, v in enumerate(f.values):
        if v:
            members.extend(f.group.classes[j].members)
    return f.group.subgroup(members)


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
    """A subgroup realized as its own Group, with table and class fusion."""

    __slots__ = (
        "parent", "subgroup", "group", "table", "fusion",
        "to_parent", "from_parent", "_conj_perms",
    )

    def __init__(self, parent, subgroup, group, table, fusion, to_parent, from_parent):
        self.parent = parent
        self.subgroup = subgroup
        self.group = group
        self.table = table
        self.fusion = fusion
        self.to_parent = to_parent
        self.from_parent = from_parent
        self._conj_perms = {}

    @classmethod
    def build(cls, parent, subgroup, subgroup_group=None):
        """Build the context for a subgroup of ``parent``.

        Promoted groups are cached on the parent; the cache is a thread-safe
        memo (one computation per element set, concurrent readers).
        """
        from . import chartab  # deferred: chartab uses ClassFunction

        if isinstance(subgroup, Subgroup):
            if subgroup.parent is not parent:
                raise GroupMismatch("subgroup belongs to a different parent")
        else:
            subgroup = Subgroup(parent, subgroup)
        key = subgroup.element_set
        with parent._promotion_lock:
            cached = parent._promotions.get(key)
            if cached is None:
                group = subgroup_group
                if group is None:
                    if len(key) == parent.order:
                        group = parent
                    else:
                        from .perm import group_closure

                        gens = [parent.element(i) for i in subgroup.generators() or (0,)]
                        group = group_closure(gens, cap=parent.order)
                table = chartab.dixon_table(group)
                to_parent = tuple(parent.indices_of(group.images).tolist())
                from_parent = {pi: si for si, pi in enumerate(to_parent)}
                fusion = tuple(
                    parent.class_of[to_parent[c.representative]] for c in group.classes
                )
                cached = (group, table, fusion, to_parent, from_parent)
                parent._promotions[key] = cached
        group, table, fusion, to_parent, from_parent = cached
        return cls(parent, subgroup, group, table, fusion, to_parent, from_parent)

    def conjugation_class_map(self, g_index):
        """Permutation of subgroup classes induced by x -> g x g^(-1)."""
        perm = self._conj_perms.get(g_index)
        if perm is None:
            reps = [self.to_parent[c.representative] for c in self.group.classes]
            out = []
            for conj in self.parent.conjugates(reps, g_index).tolist():
                si = self.from_parent.get(conj)
                if si is None:
                    raise NotNormal("conjugation leaves the subgroup")
                out.append(self.group.class_of[si])
            perm = tuple(out)
            self._conj_perms[g_index] = perm
        return perm

    def __repr__(self):
        return f"InducedContext(|H|={self.group.order}, |G|={self.parent.order})"


def restrict(f, ctx):
    """Pull a class function of the parent back along the class fusion."""
    if f.group is not ctx.parent:
        raise GroupMismatch("class function does not live on the context's parent")
    return ClassFunction(ctx.group, [f.values[j] for j in ctx.fusion])


def induce(f, ctx):
    """Frobenius induction, computed classwise through the fusion map."""
    if f.group is not ctx.group:
        raise GroupMismatch("class function does not live on the context's subgroup")
    parent = ctx.parent
    sub = ctx.group
    sums = [Cyclotomic.zero() for _ in range(parent.num_classes)]
    for c, cls in enumerate(sub.classes):
        v = f.values[c]
        if v:
            j = ctx.fusion[c]
            sums[j] = sums[j] + cls.size * v
    scale = Fraction(parent.order, sub.order)
    values = []
    for j, s in enumerate(sums):
        weight = scale / parent.classes[j].size
        values.append(s * weight)
    return ClassFunction(parent, values)


def induce_by_summation(f, ctx):
    """Induction by the raw Frobenius sum over the whole parent group.

    Slow; kept as an independent cross-check of the classwise form.
    """
    parent = ctx.parent
    values = []
    for cls in parent.classes:
        rep = cls.representative
        total = Cyclotomic.zero()
        for x in range(parent.order):
            y = parent.conjugate(rep, x)
            si = ctx.from_parent.get(y)
            if si is not None:
                total = total + f.values[ctx.group.class_of[si]]
        values.append(total * Fraction(1, ctx.group.order))
    return ClassFunction(parent, values)


def conjugate_character(f, ctx, g_index):
    """f^g with f on a normal subgroup: f^g(x) = f(g x g^(-1))."""
    if not ctx.subgroup.is_normal:
        raise NotNormal("conjugate_character requires a normal subgroup")
    perm = ctx.conjugation_class_map(g_index)
    return ClassFunction(ctx.group, [f.values[perm[c]] for c in range(ctx.group.num_classes)])


def stabilizer_and_orbit(f, ctx):
    """The stabilizer of f under parent conjugation, with the full orbit."""
    if not ctx.subgroup.is_normal:
        raise NotNormal("stabilizer_and_orbit requires a normal subgroup")
    parent = ctx.parent
    base = tuple(f.values)
    stabilizer = []
    orbit = []
    seen = {}
    for g in range(parent.order):
        perm = ctx.conjugation_class_map(g)
        imaged = tuple(base[perm[c]] for c in range(len(base)))
        if imaged == base:
            stabilizer.append(g)
        key = tuple((v.order, v.num, v.den) for v in imaged)
        if key not in seen:
            seen[key] = True
            orbit.append(ClassFunction(ctx.group, imaged))
    stab = Subgroup(parent, stabilizer)
    if len(orbit) * stab.order != parent.order:
        raise CharprodError("orbit-stabilizer mismatch (engine bug)")
    return stab, orbit


def irr_lying_over(table, ctx, phi):
    """Indices of the irreducibles of the parent lying over phi in Irr(N)."""
    out = []
    for i, chi in enumerate(table.irreducibles):
        if inner_product(restrict(chi, ctx), phi, characters=True) != 0:
            out.append(i)
    return out


def clifford_correspondent(chi, iota, ctx_y, ctx_stab):
    """The unique xi in Irr(G_iota) over iota with xi^G = chi.

    ctx_y realizes the normal subgroup Y carrying iota; ctx_stab realizes the
    stabilizer of iota.  The result is verified by explicit induction.
    """
    parent = ctx_stab.parent
    if chi.group is not parent:
        raise GroupMismatch("chi must live on the stabilizer context's parent")
    stab_group = ctx_stab.group
    y_in_stab = InducedContext.build(
        stab_group,
        [ctx_stab.from_parent[p] for p in (ctx_y.to_parent[i] for i in range(ctx_y.group.order))],
        subgroup_group=ctx_y.group,
    )
    found = []
    for xi in ctx_stab.table.irreducibles:
        if inner_product(restrict(xi, y_in_stab), iota, characters=True) == 0:
            continue
        if induce(xi, ctx_stab) == chi:
            found.append(xi)
    if not found:
        raise NoCorrespondent("no irreducible of the stabilizer induces to chi over iota")
    if len(found) > 1:
        raise NotUnique("several irreducibles of the stabilizer induce to chi over iota")
    return found[0]
