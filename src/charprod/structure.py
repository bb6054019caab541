"""Normal-subgroup lattice, index-p normals, chief factors and quotient maps.

Every normal subgroup is an intersection of kernels of irreducible characters,
so the lattice is computed from the table's kernels, held as integer bitmasks
over the classes, and closed under intersection one kernel at a time.
Members are unions of conjugacy classes and are handed out as frozen sets of
class indices.  A quotient G/N is the regular action of G on the cosets of N,
enumerated breadth-first with each element keyed by the coset it sends N to.
"""

from __future__ import annotations

import numpy as np

from .charops import ClassFunction
from .errors import CharprodError, GroupMismatch, NotAPGroup, NotNormal
from .perm import Group, Permutation, Subgroup, orbit_labels


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
    """Every intersection of kernels of irreducibles, G included.  A kernel
    is an int bitmask over the classes; the lattice closes one kernel k at a
    time, L <- L | {k & x : x in L}, from L = {G}."""
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
            raise GroupMismatch("class function does not live on the quotient")
        return ClassFunction.from_coefficients(self.source, f.order, f.num[self.class_map], f.den)

    def __repr__(self):
        return f"QuotientMap(|G|={self.source.order} -> |G/N|={self.quotient.order})"


def quotient(group, normal):
    """Quotient by a normal subgroup via the left-coset permutation action.

    The action is regular, so an element of G/N is fixed by the coset it
    sends N (coset 0) to: the breadth-first closure keys each element by that
    one image and keeps first occurrences in (element, generator) order, the
    order ``group_closure`` enumerates."""
    if not normal.is_normal:
        raise NotNormal("quotient requires a normal subgroup")
    everything = np.arange(group.order)
    steps = group.products(everything, np.array(normal.generators(), dtype=np.intp)[:, None])
    coset_of, reps = orbit_labels(steps)
    # g acts on the cosets by g(x N) = gx N; coset c is reps[c] N.
    actions = coset_of[group.products(np.array(group._gen_indices)[:, None], reps)]
    n, k = len(reps), len(actions)
    level = np.arange(n)[None, :]
    levels, seen = [level], np.zeros(n, dtype=bool)
    seen[0] = True
    while len(level):
        # product r is element r // k of the level times generator r % k
        keys = level[:, actions[:, 0]].ravel()
        _, first = np.unique(keys, return_index=True)
        fresh = np.sort(first[~seen[keys[first]]])
        seen[keys[fresh]] = True
        level = level[(fresh // k)[:, None], actions[fresh % k]]
        levels.append(level)
    if not seen.all():
        raise CharprodError("the coset action does not reach every coset (engine bug)")
    images = np.concatenate(levels)
    quot = Group([Permutation(row) for row in actions.tolist()], images)
    # element i of G/N sends coset 0 to coset images[i, 0]
    element_of = np.empty(n, dtype=np.intp)
    element_of[images[:, 0]] = np.arange(n)
    projection = element_of[coset_of]
    class_map = quot.class_of[projection[group.class_reps]]
    return QuotientMap(group, quot, projection, class_map)
