"""Normal-subgroup lattice, index-p normals, chief factors and quotient maps.

Every normal subgroup is an intersection of kernels of irreducible characters,
so the lattice is computed from the table's kernels, held as integer bitmasks
over the classes, and closed under intersection one kernel at a time.  The
lattice is one read-only boolean array of class masks (members x classes) with
the member orders; a member's ``Subgroup`` is made only when it is read.  A
quotient G/N is the regular action of G on the cosets of N, enumerated
breadth-first with each element keyed by the coset it sends N to.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .charops import ClassFunction
from .errors import CharprodError, GroupMismatch, NotAPGroup, NotNormal
from .perm import Group, Subgroup, orbit_labels


class NormalLattice:
    """All normal subgroups, sorted by order then element set: ``masks`` is
    the read-only members x classes boolean array and ``orders`` the
    read-only member orders.  ``members`` makes each member's Subgroup when
    it is first read."""

    def __init__(self, group, masks, orders):
        self.group = group
        self.masks = masks
        self.orders = orders
        self.members = _Members(group, masks)


class _Members(Sequence):
    """The lattice members as Subgroups, each made once, under the group's
    lock, when it is first read."""

    def __init__(self, group, masks):
        self._group = group
        self._masks = masks
        self._made = [None] * len(masks)

    def __len__(self):
        return len(self._made)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        member = self._made[i]
        if member is None:
            with self._group._promotion_lock:
                member = self._made[i]
                if member is None:
                    member = self._made[i] = Subgroup(self._group, self._group.class_members(self._masks[i]))
        return member


def normal_lattice(group, table):
    """Every intersection of kernels of irreducibles, G included.  A kernel
    is an int bitmask over the classes; the lattice closes one kernel k at a
    time, L <- L | {k & x : x in L}, from L = {G}.

    Members are sorted by (order, ascending element tuple) with one
    ``np.lexsort`` and no per-member object.  Of two sets A != B of equal
    order, the one holding d = min(A ^ B) has the smaller tuple: both agree
    below d, and the other one's next element lies above d.  Members are
    unions of classes, and classes are numbered by their least element, so
    d is the least element of the class of least index in the symmetric
    difference of the class sets, and the set holding d is the one whose
    class mask, read from class 0, first has a 1 where the other has a 0.
    So the keys are the order, then the complemented class masks packed
    class 0 first (the high bit of byte 0)."""
    _, tensor = table.coefficient_tensor()
    kernels = np.packbits((tensor == tensor[:, :1]).all(axis=2), axis=1, bitorder="little")
    m, width = group.num_classes, kernels.shape[1]
    found = {(1 << m) - 1}
    for k in {int.from_bytes(row.tobytes(), "little") for row in kernels}:
        found |= {k & x for x in found}
    packed = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in found), np.uint8).reshape(-1, width)
    masks = np.unpackbits(packed, axis=1, count=m, bitorder="little").astype(bool)
    orders = (masks * group.class_sizes).sum(axis=1)
    keys = ~np.packbits(masks, axis=1)
    rank = np.lexsort((*keys.T[::-1], orders))
    masks, orders = masks[rank], orders[rank]
    masks.flags.writeable = orders.flags.writeable = False
    return NormalLattice(group, masks, orders)


def normals_of_index(lattice, p):
    """Lattice members of index p."""
    index_p = np.flatnonzero(lattice.orders * p == lattice.group.order)
    return [lattice.members[i] for i in index_p.tolist()]


def chief_factor_above(lattice, z):
    """All normal Y with Z < Y and |Y : Z| = p; chief factors of a p-group.
    A member holds Z when its class mask holds the classes of Z's elements."""
    group = lattice.group
    if z.parent is not group:
        raise GroupMismatch("Z is not a subgroup of the lattice's group")
    p = group.p_group_prime()
    if p is None:
        raise NotAPGroup("chief factors are only computed for p-groups")
    if not z.is_normal:
        raise NotNormal("Z must be normal")
    inside = np.zeros(group.num_classes, dtype=bool)
    inside[group.class_of[list(z.element_indices)]] = True
    above = (lattice.orders == z.order * p) & lattice.masks[:, inside].all(axis=1)
    return [lattice.members[i] for i in np.flatnonzero(above).tolist()]


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
    order ``group_closure`` enumerates.  Each new level is one flat gather
    from the level before it."""
    if normal.parent is not group:
        raise GroupMismatch("the subgroup belongs to another group")
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
        keys = level.take(actions[:, 0], axis=1).ravel()
        _, first = np.unique(keys, return_index=True)
        fresh = np.sort(first[~seen[keys[first]]])
        seen[keys[fresh]] = True
        level = level.take((fresh // k * n)[:, None] + actions[fresh % k])
        levels.append(level)
    if not seen.all():
        raise CharprodError("the coset action does not reach every coset (engine bug)")
    images = np.concatenate(levels)
    # element i of G/N sends coset 0 to images[i, 0], generator j to actions[j, 0]
    element_of = np.empty(n, dtype=np.intp)
    element_of[images[:, 0]] = np.arange(n)
    quot = Group(None, images, element_of[actions[:, 0]].tolist())
    projection = element_of[coset_of]
    class_map = quot.class_of[projection[group.class_reps]]
    return QuotientMap(group, quot, projection, class_map)
