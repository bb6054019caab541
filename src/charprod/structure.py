"""Normal-subgroup lattice, index-p normals, chief factors and quotient maps.

Every normal subgroup is an intersection of kernels of irreducible characters,
so the lattice is computed from the table's kernels and closed under pairwise
intersection.  Members are unions of conjugacy classes and are handled as
frozen sets of class indices.
"""

from __future__ import annotations

import numpy as np

from .charops import ClassFunction, kernel_classes
from .errors import NotAPGroup, NotNormal
from .perm import Permutation, Subgroup, group_closure, orbit_labels


class NormalLattice:
    """All normal subgroups, sorted by order then element set."""

    def __init__(self, group, members, class_sets):
        self.group = group
        self.members = tuple(members)
        self.class_sets = tuple(class_sets)

    def to_json(self):
        out = []
        for i, member in enumerate(self.members):
            gens = [self.group.element(g).to_text() for g in member.generators()]
            parents = [
                j
                for j, cs in enumerate(self.class_sets)
                if j != i and self.class_sets[i] < cs
            ]
            out.append(
                {
                    "order": member.order,
                    "index": self.group.order // member.order,
                    "generator_cycles": gens,
                    "is_in": parents,
                }
            )
        return out


def normal_lattice(group, table):
    """Kernels of the irreducibles, closed under pairwise intersection, plus G."""
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
    members = [(Subgroup(group, group.class_members(list(cs))), cs) for cs in found]
    members.sort(key=lambda pair: (pair[0].order, pair[0].element_indices))
    return NormalLattice(group, [m for m, _ in members], [cs for _, cs in members])


def normals_of_index(lattice, p):
    """Lattice members of index p."""
    order = lattice.group.order
    return [m for m in lattice.members if order // m.order == p and m.order * p == order]


def chief_factor_above(lattice, z):
    """All normal Y with Z < Y and |Y : Z| = p; chief factors of a p-group."""
    p = lattice.group.p_group_prime()
    if p is None:
        raise NotAPGroup("chief factors are only computed for p-groups")
    if not z.is_normal:
        raise NotNormal("Z must be normal")
    out = []
    for member in lattice.members:
        if member.order == z.order * p and z.element_set < member.element_set:
            out.append(member)
    return out


class QuotientMap:
    """G -> G/N realized as the permutation action on the cosets of N;
    ``projection`` (per element of G) and ``class_map`` (per class of G) are
    index arrays into the quotient."""

    def __init__(self, source, quotient, projection, class_map):
        self.source = source
        self.quotient = quotient
        self.projection = projection
        self.class_map = class_map

    def inflate(self, f):
        """Pull a class function of the quotient back to the source."""
        if f.group is not self.quotient:
            raise ValueError("class function does not live on the quotient")
        return ClassFunction.from_coefficients(self.source, f.order, f.num[self.class_map], f.den)

    def __repr__(self):
        return f"QuotientMap(|G|={self.source.order} -> |G/N|={self.quotient.order})"


def quotient(group, normal):
    """Quotient by a normal subgroup via the left-coset permutation action."""
    if not normal.is_normal:
        raise NotNormal("quotient requires a normal subgroup")
    everything = np.arange(group.order)
    steps = group.products(everything, np.array(normal.generators(), dtype=np.intp)[:, None])
    coset_of, reps = orbit_labels(steps)
    # g acts on the cosets by g(x N) = gx N; coset c is reps[c] N.
    actions = coset_of[group.products(np.array(group._gen_indices)[:, None], reps)]
    quot = group_closure([Permutation(row) for row in actions.tolist()], cap=len(reps))
    projection = quot.locate(coset_of[group.products(everything[:, None], reps[quot.base])])
    class_map = quot.class_of[projection[group.class_reps]]
    return QuotientMap(group, quot, projection, class_map)
