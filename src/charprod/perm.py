"""Permutation text I/O, group closure, conjugacy classes and subgroups.

Points are 0-based internally and 1-based in all text I/O.  Composition is
``(pq)(i) = p(q(i))``: the right factor acts first.

A group stores its elements as one integer array of images, one row per
element in breadth-first order.  A base (points whose images tell all
elements apart) ranks every element by its base images, one point at a
time, so a product or a conjugate is composed at the base points only and
located by one table gather per base point; the hot loops do this for whole
index arrays at once.  A subgroup is enumerated once, over the parent's
indices, already in the breadth-first order its own Group uses.
``Permutation`` is only the text format of one element.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .cyclotomic import factorize
from .errors import CharprodError, ClosureCapExceeded, EmptyGeneratorSet, NotASubgroup, ParseError

DEFAULT_CLOSURE_CAP = 10_000
CAP_ENV_VAR = "CHARPROD_CLOSURE_CAP"


class Permutation:
    """Bijection of {0..degree-1} stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection: {images!r}")
        self.images = images

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles, degree):
        """Build from 0-based disjoint cycles, fixed points implicit."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if a in seen:
                    raise ValueError(f"point {a} repeated across cycles")
                seen.add(a)
                images[a] = b
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def cycles(self):
        """Disjoint nontrivial cycles, each starting at its minimal point, in point order."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cursor, cycle = start, []
            while not seen[cursor]:
                seen[cursor] = True
                cycle.append(cursor)
                cursor = self.images[cursor]
            if len(cycle) > 1:
                out.append(cycle)
        return out

    def to_text(self):
        """Cycle notation with 1-based points; identity renders as ``()``."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.to_text()!r}, degree={self.degree})"


def parse_permutation(text, degree=None, line_no=None):
    """Parse one line of cycle notation, e.g. ``(1 2 3)(4 5)``."""
    pos, n = 0, len(text)
    cycles = []
    max_point = 0
    seen = set()
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise ParseError(f"expected '(' but found {ch!r}", line_no, pos + 1)
        pos += 1
        cycle = []
        while True:
            while pos < n and text[pos].isspace():
                pos += 1
            if pos >= n:
                raise ParseError("unterminated cycle", line_no, pos)
            if text[pos] == ")":
                pos += 1
                break
            start = pos
            while pos < n and text[pos].isdecimal():
                pos += 1
            if pos == start:
                raise ParseError(f"expected point or ')' but found {text[pos]!r}", line_no, pos + 1)
            point = int(text[start:pos])
            if point < 1:
                raise ParseError("points are 1-based", line_no, start + 1)
            if point in seen:
                raise ParseError(f"point {point} repeated", line_no, start + 1)
            seen.add(point)
            cycle.append(point - 1)
            max_point = max(max_point, point)
        if len(cycle) > 1:
            cycles.append(cycle)
    if degree is None:
        degree = max(max_point, 1)
    elif max_point > degree:
        raise ParseError(f"point {max_point} exceeds declared degree {degree}", line_no)
    return Permutation.from_cycles(cycles, degree)


def parse_generators(text):
    """Parse a generator file: optional ``degree=N`` header, one permutation per
    line, ``#`` comments ignored.  Returns (generators, degree)."""
    degree = None
    raw = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.lower().startswith("degree"):
            body = stripped[len("degree"):].strip()
            if not body.startswith("="):
                raise ParseError("malformed degree header", line_no, 1)
            try:
                degree = int(body[1:].strip())
            except ValueError:
                raise ParseError("malformed degree header", line_no, 1) from None
            if degree < 1:
                raise ParseError("degree must be positive", line_no, 1)
            continue
        raw.append((line_no, stripped))
    if not raw:
        if degree is None:
            raise EmptyGeneratorSet("no generators and no degree header")
        return [Permutation.identity(degree)], degree
    parsed = [parse_permutation(s, degree, line_no) for line_no, s in raw]
    width = degree if degree is not None else max(p.degree for p in parsed)
    gens = [_pad(p, width) for p in parsed]
    return gens, width


def _pad(perm, degree):
    if perm.degree == degree:
        return perm
    return Permutation(tuple(perm.images) + tuple(range(perm.degree, degree)))


class Subgroup:
    """A subgroup of a parent Group as a sorted set of element indices, given
    as any iterable of indices or as an index array; repeats count once.

    ``is_normal`` is computed on first read, once, under the parent's lock:
    lattice members are intersections of kernels and never need the check."""

    __slots__ = ("parent", "element_indices", "element_set", "_is_normal", "_closure")

    def __init__(self, parent, element_indices):
        self.parent = parent
        if isinstance(element_indices, np.ndarray):
            element_indices = element_indices.tolist()
        self.element_set = frozenset(element_indices)
        indices = self.element_indices = tuple(sorted(self.element_set))
        if indices and not 0 <= indices[0] <= indices[-1] < parent.order:
            raise NotASubgroup(f"element indices must lie in [0, {parent.order})")
        self._is_normal = None
        self._closure = None

    @property
    def is_normal(self):
        if self._is_normal is None:
            with self.parent._promotion_lock:
                if self._is_normal is None:
                    self._is_normal = self.parent._is_conjugation_closed(self.element_indices)
        return self._is_normal

    @property
    def order(self):
        return len(self.element_indices)

    def closure(self):
        """(generators, read-only breadth-first elements, presentation) of the set's one queue closure."""
        if self._closure is None:
            order, gens, table = self.parent._closure_indices(self.element_indices)
            if len(order) != self.order:
                raise NotASubgroup("the elements do not form a subgroup")
            order.flags.writeable = False
            self._closure = tuple(gens), order, table
        return self._closure

    def generators(self):
        """A small deterministic generating set (ascending greedy scan)."""
        return self.closure()[0]

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.element_set == other.element_set
        )

    def __hash__(self):
        return hash((id(self.parent), self.element_set))

    def __repr__(self):
        return f"Subgroup(order={self.order}, normal={self.is_normal})"


class Group:
    """A finite permutation group with fully enumerated elements.

    Element index 0 is the identity; the enumeration is the breadth-first
    closure of the generators in the order given, so it is reproducible.
    ``images[i]`` is the image row of element i; ``class_of`` (per element),
    ``class_sizes`` and ``class_reps`` (per class, the least member) are the
    read-only arrays that are the conjugacy classes.  Index arguments of the
    batched methods (``products``, ``conjugates``) are integer arrays that
    broadcast against each other.

    A group made from index arrays passes no generators, only their indices
    and what it reads off its parent or ``twin`` (``InducedContext.build``).
    """

    def __init__(self, generators, images, gen_indices=None, inverses=None, orders=None, twin=None):
        self._generators = None if generators is None else tuple(generators)
        self.images = images
        self.order, self.degree = images.shape
        self.base, self._tables, self._by_rank = _base_tables(images)
        self._base_images = images[:, self.base]
        if gen_indices is None:
            gen_indices = self.indices_of([g.images for g in self._generators]).tolist()
        self._gen_indices = gen_indices
        if twin is not None:
            inverses, orders = twin.inverses, twin._orders
        if inverses is None:
            # the inverse of x sends a base point to its position in x's image row
            inverse_base = np.empty((self.order, len(self.base)), dtype=np.intp)
            for column, point in enumerate(self.base):
                inverse_base[:, column] = (images == point).argmax(axis=1)
            inverses = self.locate(inverse_base)
        self.inverses = inverses
        self._orders = self._element_orders() if orders is None else orders
        # one lock makes the table, the lattice, every context and the
        # normality cache compute-once
        self._promotion_lock = threading.RLock()
        self._promotions = {}
        self._presentations = {}
        self._twin_of = twin
        self._character_table = None
        self._normal_lattice = None
        self._derived = None
        self._inverse_class = None
        if twin is not None:
            self.class_of, self.class_reps, self.class_sizes, self.exponent = (
                twin.class_of, twin.class_reps, twin.class_sizes, twin.exponent)
            return
        steps = self.conjugates(np.arange(self.order), np.array(self._gen_indices)[:, None])
        self.class_of, self.class_reps = orbit_labels(steps)
        self.class_sizes = np.bincount(self.class_of)
        for shared in (self.class_of, self.class_sizes, self.class_reps, self.inverses, self._orders):
            shared.flags.writeable = False
        self.exponent = math.lcm(*np.unique(self._orders).tolist())

    @property
    def generators(self):
        """The generators as Permutations, for text output."""
        if self._generators is None:
            self._generators = tuple(self.element(i) for i in self._gen_indices)
        return self._generators

    # -- element arithmetic ----------------------------------------------

    def locate(self, base_images):
        """Indices of the elements with the given base images (last axis),
        one table gather per base point; a non-member gets some index."""
        rank = np.zeros(base_images.shape[:-1], dtype=np.intp)
        for column, table in enumerate(self._tables):
            rank = table[rank, base_images[..., column]]
        return self._by_rank.take(rank, mode="clip")

    def products(self, a, b):
        """Indices of x_a x_b."""
        return self.locate(self.images[np.asarray(a)[..., None], self._base_images[b]])

    def conjugates(self, x, g):
        """Indices of g x g^(-1)."""
        g = np.asarray(g)
        points = self.images[np.asarray(x)[..., None], self._base_images[self.inverses[g]]]
        return self.locate(self.images[g[..., None], points])

    def mul(self, i, j):
        return int(self.products(i, j))

    def indices_of(self, rows):
        """Indices of the elements with the given full image rows; KeyError
        for a row that is not an element of this group."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1, self.degree)
        found = self.locate(rows[:, self.base])
        wrong = np.flatnonzero((self.images[found] != rows).any(axis=1))
        if wrong.size:
            raise KeyError(f"{Permutation(rows[wrong[0]].tolist())!r} is not an element of this group")
        return found

    def element_index(self, perm):
        if perm.degree != self.degree:
            raise KeyError(f"{perm!r} is not an element of this group")
        return int(self.indices_of(perm.images)[0])

    def element(self, i):
        """Element i as a Permutation, for text output."""
        return Permutation(self.images[i].tolist())

    def element_order(self, i):
        return int(self._orders[i])

    def _element_orders(self):
        """Order of every element: the first power fixing every base point."""
        orders = np.ones(self.order, dtype=np.int64)
        live, points = np.arange(self.order), self._base_images
        while True:
            moved = (points != self._base_images[0]).any(axis=1)
            live, points = live[moved], points[moved]
            if not live.size:
                return orders
            orders[live] += 1
            points = self.images[live[:, None], points]

    # -- class level ------------------------------------------------------

    @property
    def num_classes(self):
        return len(self.class_reps)

    def class_members(self, classes):
        """Ascending indices of the elements of one class or of a union of
        classes, given as class indices or as a mask over the classes."""
        chosen = np.zeros(self.num_classes, dtype=bool)
        chosen[classes] = True
        return np.flatnonzero(chosen[self.class_of])

    def inverse_class(self):
        """Read-only array: j -> class of the inverses of class j."""
        if self._inverse_class is None:
            inverse = self.class_of[self.inverses[self.class_reps]]
            inverse.flags.writeable = False
            self._inverse_class = inverse
        return self._inverse_class

    def p_group_prime(self):
        """The prime p when |G| = p^k with k >= 1, else None."""
        factors = factorize(self.order)
        return factors[0][0] if len(factors) == 1 else None

    # -- subgroups --------------------------------------------------------

    def _is_conjugation_closed(self, indices):
        indices = np.asarray(indices, dtype=np.intp)
        inside = np.zeros(self.order, dtype=bool)
        inside[indices] = True
        return bool(inside[self.conjugates(indices, np.array(self._gen_indices)[:, None])].all())

    def _closure_indices(self, seed):
        """Subgroup generated by a set of element indices: (its elements in
        ``group_closure``'s order, the generators an ascending greedy scan of
        the seed keeps, its presentation).

        Each kept generator s gets one column x -> x s over the group, as a
        list.  The scan keeps s when the closure H so far misses it, then
        grows H from its frontier only: the coset H s, then each new element
        times every kept generator (the set reached holds 1 and is closed
        under the generators, so it is the subgroup).  One FIFO pass from the
        identity then lists the elements, appending each unseen x g_j in
        (queue position of x, j) order.  Breadth-first level L+1 is the
        unseen products x g_j, first occurrences in (position of x in level
        L, j) order, and the queue takes level L in order, so it lists every
        level in that order.  The presentation is the (elements, generators)
        table of x_i g_j.  In the subgroup's own indices the kept generators
        are 1..k and every element is a word in them, so the table fixes the
        multiplication on indices; the table pipeline reads a group only by
        index arithmetic and ``_gen_indices``, so equal presentations give
        equal class arrays, orders, inverses, exponent and coefficient
        tensor."""
        gens, columns, inside = [], [], {0}
        for s in sorted(set(seed)):
            if s in inside:
                continue
            gens.append(int(s))
            columns.append(self.locate(self.images[:, self._base_images[s]]).tolist())
            grown = [columns[-1][x] for x in inside]
            inside.update(grown)
            for x in grown:
                for column in columns:
                    y = column[x]
                    if y not in inside:
                        inside.add(y)
                        grown.append(y)
        order, rows, seen = [0], [], {0}
        for x in order:
            rows.append([column[x] for column in columns])
            for y in rows[-1]:
                if y not in seen:
                    seen.add(y)
                    order.append(y)
        return np.array(order, dtype=np.intp), gens, np.array(rows, dtype=np.intp).reshape(len(order), len(gens))

    def subgroup(self, seed):
        """Smallest subgroup containing the seed indices."""
        for i in seed:
            if not 0 <= i < self.order:
                raise IndexError(f"element index {i} out of range")
        return Subgroup(self, self._closure_indices(seed)[0])

    def full_subgroup(self):
        return Subgroup(self, range(self.order))

    def derived_subgroup(self):
        """Commutator subgroup: normal closure of generator commutators.  A
        group with one class per element is abelian, so it is trivial there
        and no commutator is formed."""
        if self._derived is None and self.num_classes == self.order:
            self._derived = Subgroup(self, (0,))
        if self._derived is None:
            comms = set()
            for a in self._gen_indices:
                ia = self.inverses[a]
                for b in self._gen_indices:
                    comms.add(self.mul(self.mul(ia, self.inverses[b]), self.mul(a, b)))
            gens = np.array(self._gen_indices)[:, None]
            kept, extra = [], sorted(comms)
            while extra:
                members, kept, _ = self._closure_indices(kept + extra)
                extra = np.setdiff1d(self.conjugates(members, gens), members).tolist()
            self._derived = Subgroup(self, members)
        return self._derived

    def __repr__(self):
        return f"Group(order={self.order}, degree={self.degree}, classes={self.num_classes})"


def orbit_labels(perms):
    """Orbits of the maps given as the rows of an index array (maps, points):
    (orbit label of every point, least point of every orbit), orbits numbered
    by their least point.  Each point takes the least label among its images
    and labels then jump to their own label, until nothing changes."""
    perms = np.asarray(perms, dtype=np.intp)
    least = np.arange(perms.shape[-1])
    while True:
        step = np.minimum(least, least[perms].min(axis=0, initial=len(least)))
        step = step[step]
        if np.array_equal(step, least):
            break
        least = step
    reps, label = np.unique(least, return_inverse=True)
    return label.reshape(-1), reps


def _base_tables(images):
    """Base and lookup tables of the elements, in one pass over the points.

    A point joins the base when its images split the elements further, until
    the elements are told apart.  Its table maps (rank of an element's
    base-image prefix so far, image of the point) to the rank of the longer
    prefix, or to -1 when no element has that prefix; the last row is all -1,
    so a miss stays -1 at the points after it.  Each base point at least
    doubles the prefix count, so the tables hold fewer than
    (order + |base|) * degree entries.  Returns the base, the tables and the
    element index of every rank on the whole base."""
    order, degree = images.shape
    rank, count, base, tables = np.zeros(order, dtype=np.intp), 1, [], []
    for point in range(degree):
        if count == order:
            break
        seen = np.zeros((count + 1, degree), dtype=bool)
        seen[rank, images[:, point]] = True
        split = np.count_nonzero(seen)
        if split > count:
            table = np.full(seen.shape, -1, dtype=np.intp)
            table[seen] = np.arange(split)
            rank, count = table[rank, images[:, point]], split
            base.append(point)
            tables.append(table)
    by_rank = np.empty(order, dtype=np.intp)
    by_rank[rank] = np.arange(order)
    return base, tables, by_rank


def group_closure(generators):
    """Enumerate the group generated by ``generators`` breadth-first.

    Level by level: every element of a level, in order, times every
    generator, in order; new products join the next level in that order.
    Raises ClosureCapExceeded past the element cap ``CHARPROD_CLOSURE_CAP``
    and EmptyGeneratorSet when no generators are given.
    """
    generators = list(generators)
    if not generators:
        raise EmptyGeneratorSet("group_closure needs at least one generator")
    degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise ValueError("generators must share one degree")
    cap = os.environ.get(CAP_ENV_VAR) or DEFAULT_CLOSURE_CAP
    try:
        cap = int(cap)
    except ValueError:
        raise CharprodError(f"the element cap must be an integer, not {cap!r}") from None
    gens = np.array([g.images for g in generators], dtype=np.intp)
    level = np.arange(degree, dtype=np.intp)[None, :]
    levels, seen, count = [level], {level.tobytes()}, 1
    while len(level):
        found = level[:, gens].reshape(-1, degree)
        width = found.itemsize * degree
        data = found.tobytes()
        fresh = []
        for r in range(len(found)):
            key = data[r * width:(r + 1) * width]
            if key not in seen:
                seen.add(key)
                fresh.append(r)
        count += len(fresh)
        if fresh and count > cap:
            raise ClosureCapExceeded(cap)
        level = found[fresh]
        levels.append(level)
    return Group(generators, np.concatenate(levels))


def direct_product(*groups):
    """Direct product realized on disjoint point sets."""
    if not groups:
        raise EmptyGeneratorSet("direct_product needs at least one group")
    gens = []
    offset = 0
    total = sum(g.degree for g in groups)
    for g in groups:
        for gen in g.generators:
            images = list(range(total))
            for i, j in enumerate(gen.images):
                images[offset + i] = offset + j
            gens.append(Permutation(images))
        offset += g.degree
    return group_closure(gens)
