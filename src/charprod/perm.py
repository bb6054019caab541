"""Permutation arithmetic, group closure, conjugacy classes and subgroups.

Points are 0-based internally and 1-based in all text I/O.  Composition is
``(p * q)(i) = p(q(i))``: the right factor acts first.
"""

from __future__ import annotations

import math
import os
import threading

from .errors import CharprodError, ClosureCapExceeded, EmptyGeneratorSet, NotASubgroup, ParseError

DEFAULT_CLOSURE_CAP = 10_000
CAP_ENV_VAR = "CHARPROD_CLOSURE_CAP"


def closure_cap(explicit=None):
    """Resolve the element cap: explicit value, else env override, else default."""
    if explicit is None:
        explicit = os.environ.get(CAP_ENV_VAR) or DEFAULT_CLOSURE_CAP
    try:
        return int(explicit)
    except ValueError:
        raise CharprodError(f"the element cap must be an integer, not {explicit!r}") from None


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

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        a, b = self.images, other.images
        if len(a) != len(b):
            raise ValueError("degree mismatch")
        return Permutation(a[b[i]] for i in range(len(a)))

    def __call__(self, point):
        return self.images[point]

    def inverse(self):
        images = [0] * len(self.images)
        for i, j in enumerate(self.images):
            images[j] = i
        return Permutation(images)

    def __pow__(self, k):
        n = len(self.images)
        if k == 0:
            return Permutation.identity(n)
        base = self if k > 0 else self.inverse()
        k = abs(k)
        result = Permutation.identity(n)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def order(self):
        return math.lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def cycles(self, include_fixed=False):
        """Disjoint cycles, each starting at its minimal point, in point order."""
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
            if len(cycle) > 1 or include_fixed:
                out.append(cycle)
        return out

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def to_text(self):
        """Cycle notation with 1-based points; identity renders as ``()``."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

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
            while pos < n and text[pos].isdigit():
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


class ConjugacyClass:
    """One conjugacy class: representative index plus the sorted member set."""

    __slots__ = ("representative", "members")

    def __init__(self, representative, members):
        self.representative = representative
        self.members = tuple(sorted(members))

    @property
    def size(self):
        return len(self.members)

    def __repr__(self):
        return f"ConjugacyClass(rep={self.representative}, size={self.size})"


class Subgroup:
    """A subgroup of a parent Group as a sorted set of element indices."""

    __slots__ = ("parent", "element_indices", "element_set", "is_normal", "_generators")

    def __init__(self, parent, element_indices):
        self.parent = parent
        self.element_indices = tuple(sorted(element_indices))
        self.element_set = frozenset(self.element_indices)
        self.is_normal = parent._is_conjugation_closed(self.element_set)
        self._generators = None

    @property
    def order(self):
        return len(self.element_indices)

    @property
    def index(self):
        return self.parent.order // self.order

    def generators(self):
        """A small deterministic generating set (ascending greedy scan)."""
        if self._generators is None:
            g = self.parent
            gens, span = [], {0}
            for idx in self.element_indices:
                if idx not in span:
                    gens.append(idx)
                    span = g._closure_indices(span | {idx})
            self._generators = tuple(gens)
        return self._generators

    def class_index_set(self):
        """Covered conjugacy classes of the parent; requires a class-closed set."""
        g = self.parent
        covered = frozenset(g.class_of[i] for i in self.element_indices)
        if sum(g.classes[c].size for c in covered) != self.order:
            raise NotASubgroup("element set is not a union of conjugacy classes")
        return covered

    def contains(self, other):
        return other.element_set <= self.element_set

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
    """

    def __init__(self, generators, elements, degree):
        self.generators = tuple(generators)
        self.elements = elements
        self.degree = degree
        self.order = len(elements)
        self._index = {p.images: i for i, p in enumerate(elements)}
        self.inverses = [self._index[p.inverse().images] for p in elements]
        self._gen_indices = [self._index[g.images] for g in self.generators]
        self._power_classes = {}
        self._inverse_class = None
        self._element_orders = {}
        self._promotions = {}
        self._promotion_lock = threading.Lock()
        self._derived = None
        self.classes, self.class_of = self._conjugacy_classes()
        self.exponent = math.lcm(*(self.element_order(c.representative) for c in self.classes))

    # -- construction ---------------------------------------------------

    def mul(self, i, j):
        a, b = self.elements[i].images, self.elements[j].images
        return self._index[tuple(a[b[k]] for k in range(self.degree))]

    def conjugate(self, i, g):
        """Index of g * x_i * g^{-1}."""
        return self.mul(self.mul(g, i), self.inverses[g])

    def power(self, i, k):
        if k == 0:
            return 0
        perm = self.elements[i] ** k
        return self._index[perm.images]

    def element_index(self, perm):
        idx = self._index.get(tuple(perm.images))
        if idx is None:
            raise KeyError(f"{perm!r} is not an element of this group")
        return idx

    def element_order(self, i):
        cached = self._element_orders.get(i)
        if cached is None:
            cached = self.elements[i].order()
            self._element_orders[i] = cached
        return cached

    def _conjugacy_classes(self):
        class_of = [-1] * self.order
        classes = []
        for start in range(self.order):
            if class_of[start] >= 0:
                continue
            label = len(classes)
            orbit = [start]
            class_of[start] = label
            queue = [start]
            while queue:
                x = queue.pop()
                for g in self._gen_indices:
                    y = self.conjugate(x, g)
                    if class_of[y] < 0:
                        class_of[y] = label
                        orbit.append(y)
                        queue.append(y)
            classes.append(ConjugacyClass(start, orbit))
        return classes, class_of

    # -- class level ------------------------------------------------------

    @property
    def num_classes(self):
        return len(self.classes)

    def power_class(self, class_j, k):
        """Class of r^k for a representative r of class ``class_j``."""
        rep = self.classes[class_j].representative
        o = self.element_order(rep)
        key = (class_j, k % o)
        cached = self._power_classes.get(key)
        if cached is None:
            cached = self.class_of[self.power(rep, k % o)]
            self._power_classes[key] = cached
        return cached

    def inverse_class(self):
        """Permutation j -> class of inverses of class j."""
        if self._inverse_class is None:
            self._inverse_class = tuple(self.power_class(j, -1) for j in range(self.num_classes))
        return self._inverse_class

    def centralizer_order(self, class_j):
        return self.order // self.classes[class_j].size

    def p_group_prime(self):
        """The prime p when |G| = p^k with k >= 1, else None."""
        n = self.order
        if n == 1:
            return None
        p = _smallest_prime_factor(n)
        while n % p == 0:
            n //= p
        return p if n == 1 else None

    # -- subgroups --------------------------------------------------------

    def _is_conjugation_closed(self, index_set):
        for g in self._gen_indices:
            for i in index_set:
                if self.conjugate(i, g) not in index_set:
                    return False
        return True

    def _closure_indices(self, seed):
        """Subgroup closure of a set of element indices (with identity)."""
        members = set(seed)
        members.add(0)
        frontier = list(members)
        gens = [i for i in seed if i != 0]
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = self.mul(x, s)
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return members

    def subgroup(self, seed):
        """Smallest subgroup containing the seed indices."""
        for i in seed:
            if not 0 <= i < self.order:
                raise IndexError(f"element index {i} out of range")
        return Subgroup(self, self._closure_indices(set(seed)))

    def full_subgroup(self):
        return Subgroup(self, range(self.order))

    def derived_subgroup(self):
        """Commutator subgroup: normal closure of generator commutators."""
        if self._derived is None:
            comms = set()
            for a in self._gen_indices:
                ia = self.inverses[a]
                for b in self._gen_indices:
                    comms.add(self.mul(self.mul(ia, self.inverses[b]), self.mul(a, b)))
            members = self._closure_indices(comms)
            while True:
                extra = set()
                for g in self._gen_indices:
                    for i in members:
                        j = self.conjugate(i, g)
                        if j not in members:
                            extra.add(j)
                if not extra:
                    break
                members = self._closure_indices(members | extra)
            self._derived = Subgroup(self, members)
        return self._derived

    def __repr__(self):
        return f"Group(order={self.order}, degree={self.degree}, classes={self.num_classes})"


def _smallest_prime_factor(n):
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def group_closure(generators, cap=None):
    """Enumerate the group generated by ``generators`` breadth-first.

    Raises ClosureCapExceeded when the enumeration passes the cap and
    EmptyGeneratorSet when no generators are given.
    """
    generators = list(generators)
    if not generators:
        raise EmptyGeneratorSet("group_closure needs at least one generator")
    degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise ValueError("generators must share one degree")
    cap = closure_cap(cap)
    identity = Permutation.identity(degree)
    elements = [identity]
    seen = {identity.images}
    cursor = 0
    while cursor < len(elements):
        current = elements[cursor]
        cursor += 1
        for g in generators:
            nxt = current * g
            if nxt.images not in seen:
                if len(elements) >= cap:
                    raise ClosureCapExceeded(cap)
                seen.add(nxt.images)
                elements.append(nxt)
    return Group(generators, elements, degree)


def direct_product(*groups, cap=None):
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
    return group_closure(gens, cap=cap)
