"""Exact character tables: linear characters by cyclic extension, the rest
via the Dixon-Schneider method.

The characters of G/G', inflated to G, are built exactly along the group's
generators, one cyclic extension at a time; for an abelian group they are
the whole table.  The other central characters span the annihilator, over
GF(q) with q = 1 (mod exponent) and q > 2 ceil(sqrt(|G|)), of the conjugate
values of the linear ones (Schneider 1990): the vectors that sum to 0 over
each coset of G'.  The split of that space into common eigenspaces of the
class-sum matrices starts from the characters of the centre, built by the
same cyclic extension: the joint eigenspace of the central class matrices
for each of them is spanned by weighted sums over the orbits of Z(G) on the
classes, with no central class matrix formed, and is cut to the annihilator
with no elimination.  The other class matrices are read only when the split
reaches them, in ascending class size, and only at the rows the split reads,
the pivots of its open spaces: |C_i| products a row.  Degrees and eigenvalue
multiplicities are lifted to integers (they lie below sqrt(|G|) < q/2) and
the values re-assembled as exact cyclotomics through the discrete Fourier
sum over the power map.  The finished table must have one row per class and
pass exact row orthogonality, which for a square table implies the column
relation; each distinct value is formatted once.  The row relation is
decided, once the table's columns are checked Galois-stable, at one
embedding modulo one prime Q = 1 (mod e) with m (Q - 1)^2 < 2^53, exact
when Q exceeds twice an l1 bound on the residual; a table that fails there,
or whose bound does not lie under Q / 2, gets its residuals from the exact
products in the power basis.

The table of a quotient G/N of a p-group needs no split: it is the rows of
G's table with N in their kernel, read at one class of G over each class of
G/N and brought down to the exponent of G/N by the power-basis stride, with
the same row sort and checks as a built table.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .charops import ClassFunction
from .cyclotomic import (
    FLOAT_EXACT,
    _product,
    _reduction_matrix,
    embed,
    euler_phi,
    fits,
    format_distinct,
    gram,
    matmul_exact,
    max_abs,
    value_json,
    value_text,
)
from .errors import CharprodError, EigensplitStall, GroupMismatch, LiftInconsistent, NotAPGroup
from .modular import (
    charpoly_mod,
    find_prime,
    inv_mod,
    is_prime,
    nth_root_of_unity,
    nullspace_mod,
    poly_roots_mod,
)


def class_constants(group, i, rows=None):
    """The class matrix M_i[j, k] = #{x in C_i : x^(-1) z_k in C_j} for a fixed
    z_k in C_k, that is #{(x, y) in C_i x C_j : xy = z_k}; its right
    eigenvectors are the central characters.  With ``rows``, only the rows
    M_i[rows], by the triple count
    |C_k| M_i[j, k] = #{(x, y, z) in C_i x C_j x C_k : xy = z}
                    = |C_j| #{u in C_i : u z_j in C_k},
    since conjugation carries the triples with y = z_j onto those with any
    other y in C_j: |C_i| products per row, against |C_i| m for all rows."""
    m = group.num_classes
    rows = np.arange(m) if rows is None else np.asarray(rows, dtype=np.intp)
    y = group.products(group.class_members(i)[:, None], group.class_reps[rows][None, :])
    cells = np.arange(rows.size) * m + group.class_of[y]
    counts = np.bincount(cells.ravel(), minlength=rows.size * m).reshape(rows.size, m)
    return counts * group.class_sizes[rows, None] // group.class_sizes


class CharacterTable:
    """The irreducible characters of a group as one read-only int64 tensor of
    their coefficients at ``order`` (the group's exponent), shape
    (irreducibles, classes, phi(order)), deterministically indexed: the
    principal character first, the rest ascending by their flattened
    coefficients, so by degree first.  Each irreducible is a ClassFunction on
    a view of its row, made when ``irreducibles`` is first read, and the row
    lookup is built from the tensor on the first lookup: the tables of the
    normal subgroups the statements restrict to are read as tensors only.
    The identity column gives the degrees."""

    def __init__(self, group, order, tensor):
        tensor.flags.writeable = False
        self.group = group
        self._tensor = order, tensor
        self.degrees = tuple(tensor[:, 0, 0].tolist())
        self._irreducibles = None
        self._row_lookup = None
        self._conj_rows = None

    @property
    def size(self):
        return self._tensor[1].shape[0]

    @property
    def irreducibles(self):
        if self._irreducibles is None:
            order, tensor = self._tensor
            self._irreducibles = tuple(ClassFunction.from_coefficients(self.group, order, row) for row in tensor)
        return self._irreducibles

    def _keys(self, rows):
        """ClassFunction.value_key of each row of coefficients at the table's
        order over 1 (with no common factor to take out of a denominator 1)."""
        order = self._tensor[0]
        target = math.lcm(self.group.exponent, order)
        return [(target, 1, row.tobytes()) for row in embed(rows, order, target)]

    def _lookup(self):
        if self._row_lookup is None:
            self._row_lookup = {key: i for i, key in enumerate(self._keys(self._tensor[1]))}
        return self._row_lookup

    def index_of(self, f):
        """Row index of an irreducible given as a ClassFunction, else None."""
        return self._lookup().get(f.value_key())

    def conjugate_index(self, i):
        """Index of the complex conjugate of irreducible i."""
        if self._conj_rows is None:
            # chi(g^-1) is the conjugate of chi(g)
            lookup = self._lookup()
            conj = self._tensor[1][:, self.group.inverse_class()]
            self._conj_rows = tuple(lookup[key] for key in self._keys(conj))
        return self._conj_rows[i]

    def linear_indices(self):
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)

    def coefficient_tensor(self):
        """(order, tensor): the common order of the values and their integer
        coefficients at it, shape (irreducibles, classes, phi(order)), read
        only.  This is the one integer image of the table; every sum over its
        classes is one ``gram`` on it."""
        return self._tensor

    def to_text(self):
        lines = []
        g = self.group
        lines.append("sizes  " + " ".join(str(size).rjust(6) for size in g.class_sizes.tolist()))
        lines.append("orders " + " ".join(str(g.element_order(r)).rjust(6) for r in g.class_reps.tolist()))
        rows = self._value_texts(lambda order, v: value_text(order, v).rjust(6))
        lines.extend(f"X{i:<5} {' '.join(row)}" for i, row in enumerate(rows))
        return "\n".join(lines)

    def to_json(self):
        g = self.group
        return {
            "order": g.order,
            "classes": [
                {
                    "index": j,
                    "size": size,
                    "representative_order": g.element_order(r),
                    "representative": g.element(r).to_text(),
                }
                for j, (size, r) in enumerate(zip(g.class_sizes.tolist(), g.class_reps.tolist()))
            ],
            "irreducibles": [
                {"index": i, "degree": self.degrees[i], "values": values}
                for i, values in enumerate(self._value_texts(value_json))
            ],
        }

    def _value_texts(self, formatter):
        """formatter(order, coefficients) of every value, as nested lists
        (irreducibles, classes), called once per distinct value."""
        order, tensor = self._tensor
        return format_distinct(tensor, lambda v: formatter(order, v))

    def __repr__(self):
        return f"CharacterTable(order={self.group.order}, irreducibles={self.size})"


def _central_spaces(group, q, known):
    """The start spaces of the split: over GF(q), the joint eigenspace E_lambda
    of the central class matrices for each character lambda of Z(G), inside
    the annihilator of the known linear characters, given by the logarithms
    of their values (rows of ``_extension_logs``), as (echelon basis,
    pivots) pairs of dimension at least 1.

    A central z maps C_j onto the class z C_j, so its class matrix sends v to
    j -> v(z C_j), and v lies in E_lambda iff v(z C_j) = lambda(z) v(C_j).  On
    one orbit of Z on the classes, with least class j0 and stabilizer S, such
    a v is v(C_j0) times the lambda-weighted orbit sum, which exists iff S
    lies in ker lambda.  Those sums span E_lambda, and their rows at the orbit
    representatives form the identity.

    The annihilator needs no elimination.  The known characters are distinct
    characters of G/N, N the intersection of their kernels, and the cosets of
    N are the distinct columns of ``known``; as many characters as cosets
    span every function on G/N, so by Fourier inversion on G/N, v is
    orthogonal to them iff v sums to 0 over the classes of each coset.  The
    coset sums of an orbit sum are lambda(z) c at the coset of z C_j0 for z
    in Z, where c, the number of its classes in the coset of C_j0, divides
    |G| and is a unit mod q, and 0 elsewhere; or 0 everywhere, when lambda is
    not trivial on Z & N.  So within E_lambda the orbit sums over one orbit
    of Z on G/N have proportional coset sums, led by the same coset, and
    those over different orbits have disjoint supports: the kernel is
    spanned by the orbit sums with no coset sum and by s_o - r s_o0 for every
    other orbit o of a group led by o0, where r is the ratio of their coset
    sums at the lead.  That is the basis the null space of the coset sums
    would give, in the same order."""
    m = group.num_classes
    e = group.exponent
    centre = group.class_reps[group.class_sizes == 1]
    logs = _extension_logs(group, [0], centre.tolist())
    moved = group.class_of[group.products(centre[:, None], group.class_reps)]
    reps = np.flatnonzero(moved.min(axis=0) == np.arange(m))
    # (lambda, orbit) pairs with no z in the stabilizer where lambda(z) != 1
    chars, orbits = np.nonzero(~((logs != 0) @ (moved[:, reps] == reps)))
    z = nth_root_of_unity(q, e)
    powers = np.array([pow(z, t, q) for t in range(e)], dtype=np.int64)
    sums = np.zeros((m, chars.size), dtype=np.int64)
    sums[moved[:, reps[orbits]], np.arange(chars.size)] = powers[logs[chars]].T
    # lead[o]: the first coset where the coset sums of orbit sum o are not 0
    cuts, lead = np.zeros((0, chars.size), dtype=np.int64), np.full(chars.size, -1)
    if len(known):
        cosets = {}
        coset_of = [cosets.setdefault(column.tobytes(), len(cosets)) for column in known.T]
        if not len(cosets) == len(known) == len({row.tobytes() for row in known}):
            raise LiftInconsistent("the known linear characters do not span the functions on their cosets")
        cuts = np.zeros((len(cosets), chars.size), dtype=np.int64)
        np.add.at(cuts, coset_of, sums)
        cuts %= q
        lead = np.where(cuts.any(axis=0), (cuts != 0).argmax(axis=0), -1)
    # head[o]: the first orbit sum of the same lambda and lead
    _, first, group_of = np.unique(chars * (len(cuts) + 1) + lead + 1, return_index=True, return_inverse=True)
    head = first[group_of]
    cols = np.arange(chars.size)
    free = (head != cols) | (lead < 0)
    ratio = np.zeros(chars.size, dtype=np.int64)
    led = free & (lead >= 0)
    inverses = [inv_mod(v, q) for v in cuts[lead[led], head[led]].tolist()]
    ratio[led] = cuts[lead[led], cols[led]] * np.array(inverses, dtype=np.int64) % q
    basis = (sums - sums[:, head] * ratio) % q
    spaces = []
    for lam in range(len(logs)):
        kept = free & (chars == lam)
        if kept.any():
            spaces.append((basis[:, kept], reps[orbits[kept]]))
    return spaces


def _split_eigenspaces(group, q, known):
    """Common eigenspaces of the class matrices over GF(q) inside the
    annihilator of the known linear characters (the logarithms of their
    values), split from the joint eigenspaces of the central class
    matrices (``_central_spaces``) by applying the other class
    matrices in ascending class size, ties by ascending index, until every
    space is 1-dimensional.  A space is an echelon basis B (columns) with
    the rows at its ``pivots`` forming the identity.

    Every open space is invariant under the next class matrix M_i: the
    class matrices commute, so M_i maps each joint eigenspace of those
    applied before into itself, and the annihilator, spanned by the central
    characters of the unknown irreducibles, which are joint eigenvectors.
    Then M_i B = B A for the action A, and A = (M_i B)[pivots] = M_i[pivots] B,
    as B[pivots] = I.  So per class step only the rows of M_i at the open
    spaces' stacked pivots are formed (``class_constants`` with ``rows``, |C_i|
    products a row), in one product against the open bases side by side,
    and each space's action is its diagonal block of that product.  A
    scalar action leaves its space as it is; any other makes one product of
    the basis with its eigenspace kernels side by side."""
    m = group.num_classes
    fits(m * (q - 1) ** 2)
    spaces = _central_spaces(group, q, known)
    order = np.argsort(group.class_sizes, kind="stable")
    for i in order[group.class_sizes[order] > 1].tolist():
        wide = [(basis, pivots) for basis, pivots in spaces if len(pivots) > 1]
        if not wide:
            break
        rows = class_constants(group, i, np.concatenate([pivots for _, pivots in wide])) % q
        actions = matmul_exact(rows, np.hstack([basis for basis, _ in wide])) % q
        refined, start = [], 0
        for basis, pivots in spaces:
            k = len(pivots)
            if k == 1:
                refined.append((basis, pivots))
                continue
            action = actions[start:start + k, start:start + k]
            start += k
            eye = np.eye(k, dtype=np.int64)
            if np.array_equal(action, action[0, 0] * eye):
                refined.append((basis, pivots))
                continue
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


def _lift_degree(omega, group, q, lift):
    """chi(1) from the orthogonality normalization, unique below sqrt(|G|),
    for central characters omega along the last axis: an int64 array of
    shape omega.shape[:-1]."""
    inv_sizes = lift[1]
    fits(omega.shape[-1] * (q - 1) ** 2)
    sums = matmul_exact(omega * omega[..., group.inverse_class()] % q, inv_sizes) % q
    # chi(1)^2 sum = |G| mod q; each product (d^2 mod q) sum is below
    # (q - 1)^2, within the bound checked above
    d = np.arange(1, math.isqrt(group.order) + 1)
    hits = (d * d % q) * sums[..., None] % q == group.order % q
    if (hits.sum(axis=-1) != 1).any():
        raise LiftInconsistent("degree lift ambiguous or missing")
    return d[hits.argmax(axis=-1)]


def _value_lift(group, q, z):
    """Per-table arrays of the value lift, shared by every character: the power
    map (class of r_j^t for t < exponent), the inverse class sizes mod q, the
    inverse DFT matrix z^(-kt) / exponent mod q, and the reduction of zeta^k
    modulo Phi_exponent."""
    e = group.exponent
    reps = group.class_reps
    powers = [np.zeros_like(reps)]
    for _ in range(1, e):
        powers.append(group.products(powers[-1], reps))
    power_map = group.class_of[np.stack(powers, axis=1)]
    inv_sizes = np.array([inv_mod(size, q) for size in group.class_sizes.tolist()], dtype=np.int64)
    inv_powers = np.array([pow(z, -t % e, q) * inv_mod(e, q) % q for t in range(e)], dtype=np.int64)
    t = np.arange(e)
    dft = inv_powers[np.outer(t, t) % e]
    return power_map, inv_sizes, dft, _reduction_matrix(e, e)


def _lift_values(omega, degree, q, lift):
    """Power-basis coefficients (classes x phi(exponent)) of the values of
    characters, via the Fourier sum over the power map: one array per
    central character omega (last axis) and its degree (``_lift_degree``).

    Row j of the DFT holds the eigenvalue multiplicities of r_j: multiplicity
    k of an element of order o lands on coefficient k * exponent / o."""
    power_map, inv_sizes, dft, reduction = lift
    fits(len(dft) * (q - 1) ** 2)
    degree = np.asarray(degree)[..., None, None]
    chi_mod = degree * (omega * inv_sizes % q)[..., power_map] % q
    mult = matmul_exact(chi_mod, dft) % q
    if (mult > degree).any():
        raise LiftInconsistent("an eigenvalue multiplicity exceeds the degree")
    if (mult.sum(axis=-1) != degree[..., 0]).any():
        raise LiftInconsistent("eigenvalue multiplicities do not sum to the degree")
    return matmul_exact(mult, reduction)


@lru_cache(maxsize=None)
def _split_prime(order, classes):
    """(Q, z): the largest prime Q = 1 (mod order) with classes (Q - 1)^2 <
    2^53, and z a primitive order-th root of unity mod Q, the embedding
    zeta -> z."""
    top = 1 + math.isqrt((FLOAT_EXACT - 1) // classes) // order * order
    q = next((q for q in range(top, 1, -order) if is_prime(q)), None)
    if q is None:
        raise CharprodError(f"no prime Q = 1 (mod {order}) is left with {classes} (Q - 1)^2 below 2^53")
    return q, nth_root_of_unity(q, order)


def modular_values(order, tensor, q, z, top):
    """The residues mod the prime q of the values whose coefficients at
    ``order`` are ``tensor``, at zeta_top -> z, so zeta_order -> z^(top /
    order): the one evaluation of a coefficient tensor modulo a prime."""
    if top % order:
        raise CharprodError("value order does not divide the imaging order")
    z_local = pow(z, top // order, q)
    powers = np.array([pow(z_local, t, q) for t in range(tensor.shape[-1])], dtype=np.int64)
    return matmul_exact(tensor, powers) % q


@lru_cache(maxsize=None)
def _unit_generators(order):
    """Units generating the group of units mod ``order``: -1 and 5 for a
    power of 2 from 8 on (Gauss), else greedily the units of largest
    multiplicative order first."""
    if order >= 8 and order & (order - 1) == 0:
        return (order - 1, 5)
    cycles = {u: {pow(u, k, order) for k in range(order)} for u in range(2, order) if math.gcd(u, order) == 1}
    gens, reached = [], {1}
    for u in sorted(cycles, key=lambda u: (-len(cycles[u]), u)):
        if u not in reached:
            gens.append(u)
            reached = {a * b % order for a in reached for b in cycles[u]}
    return tuple(gens)


def _power_classes(group, u):
    """The class of r_j^u for each class representative r_j, by repeated
    squaring; for u = -1 modulo the exponent, the inverse classes."""
    if (u + 1) % group.exponent == 0:
        return group.inverse_class()
    power, base = group.class_reps, group.class_reps
    for bit in bin(u)[3:]:
        power = group.products(power, power)
        if bit == "1":
            power = group.products(power, base)
    return group.class_of[power]


def _row_bound(group, tensor):
    """B = |G| + max_a S_a, the bound of ``_rows_hold_modulo_prime``."""
    l1 = np.abs(tensor).sum(axis=2)
    fits(group.order * max_abs(l1) ** 2)
    return int((group.class_sizes * l1 * l1).sum(axis=1).max()) + group.order


def _rows_hold_modulo_prime(group, order, tensor):
    """True iff the row relation X W Y^T = |G| I of a square table holds,
    decided at one embedding modulo one prime; False also when its columns
    are not Galois-stable, which no character table fails, or when the bound
    below does not lie under half the prime.

    First, exactly on the integer coefficients, sigma_u(X) = X[:, C^u] for
    each unit u of a generating set of the units mod ``order``: sigma_u maps
    zeta to zeta^u, and C^u is the power map, the class of r_j^u.  Then
    every entry R_ab = sum_c w_c x_a(c) x_b(c^-1) - |G| d_ab of the residual
    is fixed by every sigma_u, as c -> c^u permutes the classes and keeps
    their sizes, so R_ab lies in Z[zeta] & Q = Z.  Its size needs no property
    of a character table: with L_a(c) the l1 norm of the coefficients of
    x_a(c), |x_a(c)| <= L_a(c) as |zeta^t| = 1, and by Cauchy-Schwarz, as
    c -> c^-1 also permutes the classes and keeps their sizes,
    |R_ab| <= |G| + sqrt(S_a S_b) <= B = |G| + max_a S_a, for
    S_a = sum_c w_c L_a(c)^2 (``_row_bound``).  At zeta -> z modulo the prime
    Q = 1 (mod order) of ``_split_prime`` the image of R_ab is R_ab mod Q, so
    when 2B < Q every R_ab is 0 iff every image vanishes: one evaluation of
    the coefficients and one product of (n, c) by (c, n), below 2^53 by
    classes (Q - 1)^2 < 2^53, so a float64 one.  When 2B >= Q it returns
    False, and the exact products decide."""
    galois = _reduction_matrix(order, order)
    t = np.arange(tensor.shape[-1])
    for u in _unit_generators(order):
        if not np.array_equal(matmul_exact(tensor, galois[u * t % order]), tensor[:, _power_classes(group, u)]):
            return False
    q, z = _split_prime(order, group.num_classes)
    if group.num_classes * (q - 1) ** 2 >= FLOAT_EXACT:
        raise CharprodError(f"{group.num_classes} (Q - 1)^2 reaches 2^53 at Q = {q}")
    if 2 * _row_bound(group, tensor) >= q:
        return False
    values = modular_values(order, tensor, q, z, order)
    x = (values * (group.class_sizes % q) % q).astype(np.float64)
    y = values[:, group.inverse_class()].T.astype(np.float64, order="C")
    return np.array_equal(_product(x, y) % q, np.eye(len(tensor), dtype=np.int64) * (group.order % q))


def _orthogonality_defect(table):
    """The largest exact residual of each orthogonality relation that fails;
    empty dict if clean.  For values X, Y = X at the inverse classes and W the
    class sizes, the rows say X W Y^T = |G| I; a square X is then invertible,
    so the columns Y^T X = |G| W^-1 hold and are not computed (Isaacs, ch. 2).

    A square table is first decided modulo one split prime
    (``_rows_hold_modulo_prime``), exact by a bound checked at run time;
    clean, it is done.  A table that fails there, or is not square, is
    checked by exact ``gram`` products, which give the residuals."""
    group = table.group
    order, tensor = table.coefficient_tensor()
    if len(tensor) == group.num_classes and _rows_hold_modulo_prime(group, order, tensor):
        return {}
    conj = tensor[:, group.inverse_class()]
    defects = {}

    def check(name, residual, diagonal):
        n = np.arange(len(residual))
        residual[n, n, 0] -= diagonal
        if residual.any():
            defects[name] = int(np.abs(residual).max())
    check("rows", gram(tensor * group.class_sizes[:, None], conj, order), group.order)
    if defects or len(tensor) != group.num_classes:
        check("columns", gram(tensor.transpose(1, 0, 2), conj.transpose(1, 0, 2), order), group.order // group.class_sizes)
    return defects


def verify_orthogonality(table):
    """True iff both orthogonality relations hold exactly; rows alone if
    square, decided modulo one split prime (``_orthogonality_defect``)."""
    return not _orthogonality_defect(table)


def dixon_table(group, use_cache=True):
    """The exact table of irreducible characters of ``group``, built once per
    group under the group's lock; ``use_cache=False`` rebuilds it.  A twin
    (``InducedContext.build``) wraps the tensor of the first group's table,
    built first if need be, under the first group's lock only."""
    cached = group._character_table
    if use_cache and cached is not None:
        return cached
    first = group._twin_of if use_cache else None
    with (group if first is None else first)._promotion_lock:
        if not use_cache or group._character_table is None:
            shared = None if first is None else dixon_table(first).coefficient_tensor()
            group._character_table = _build_table(group) if shared is None else CharacterTable(group, *shared)
        return group._character_table


def _linear_logs(group):
    """Irr(G/G') inflated to G: the cyclic extension from G' along the
    generators, over all classes."""
    return _extension_logs(group, group.derived_subgroup().element_indices, group._gen_indices)


def _extension_logs(group, members, gens):
    """The characters of H/K inflated to H, for K the subgroup of the element
    indices ``members`` and H = <K, gens>, by cyclic extension along
    ``gens``: an int64 array (|H:K|, classes of G inside H, ascending) whose
    row of a character holds the logarithms of its values to the base zeta_e,
    e the exponent.  K must contain G' or lie in the centre; then so does
    every H met, whose characters are therefore constant on the classes of G
    and are kept on them.

    From H = K with its one character, each g outside H extends H to <H, g>,
    whose elements are h g^j for j < r, r the least exponent with g^r in H.
    Each character of H extends in exactly r ways: log chi(h g^j) =
    log chi(h) + j a for the r solutions a of r a = log chi(g^r) (mod e)."""
    e = group.exponent
    members = np.array(members, dtype=np.intp)
    inside = np.zeros(group.order, dtype=bool)
    inside[members] = True
    classes = np.unique(group.class_of[members])
    logs = np.zeros((1, classes.size), dtype=np.int64)
    for g in gens:
        if inside[g]:
            continue
        powers = [0, g]
        while not inside[powers[-1]]:
            powers.append(int(group.products(powers[-1], g)))
        r = len(powers) - 1
        column = np.empty(group.num_classes, dtype=np.intp)
        column[classes] = np.arange(classes.size)
        target = logs[:, column[group.class_of[powers[-1]]]]
        hits = (r * np.arange(e) - target[:, None]) % e == 0
        if (hits.sum(axis=1) != r).any():
            raise LiftInconsistent("a linear character does not extend in exactly r ways")
        roots = np.nonzero(hits)[1].reshape(-1, r)
        cosets = group.products(members, np.array(powers[:r])[:, None])
        classes, first = np.unique(group.class_of[cosets], return_index=True)
        j, h = np.divmod(first, members.size)
        below = logs[:, column[group.class_of[members[h]]]]
        logs = ((below[:, None] + roots[:, :, None] * j) % e).reshape(-1, classes.size)
        members = cosets.ravel()
        inside[members] = True
    return logs


def _build_table(group):
    m = group.num_classes
    exponent = group.exponent
    logs = _linear_logs(group)
    known = len(logs)
    reduction = _reduction_matrix(exponent, exponent)
    if known == m:
        tensor = reduction[logs]
    else:
        q = find_prime(exponent, 2 * math.isqrt(group.order - 1) + 2)
        z = nth_root_of_unity(q, exponent)
        vectors = np.stack(_split_eigenspaces(group, q, logs))
        lift = _value_lift(group, q, z)
        if not vectors[:, 0].all():
            raise LiftInconsistent("central character vanishes on the identity class")
        omegas = vectors * np.array([inv_mod(v, q) for v in vectors[:, 0].tolist()])[:, None] % q
        degrees = _lift_degree(omegas, group, q, lift)
        tensor = np.empty((known + len(omegas), m, reduction.shape[1]), dtype=np.int64)
        np.take(reduction, logs, axis=0, out=tensor[:known])
        # m // exponent characters a step, so that each step's (characters,
        # classes, exponent) arrays hold about m^2 entries, as a class matrix does
        step = max(1, m // exponent)
        for i in range(0, len(omegas), step):
            tensor[known + i:known + i + step] = _lift_values(omegas[i:i + step], degrees[i:i + step], q, lift)

    return _finish_table(group, tensor)


def _finish_table(group, tensor):
    """The table of the rows of ``tensor`` (coefficients at the group's
    exponent), sorted and checked: one row per class, a single principal row,
    the degree squares summing to |G| and orthogonality, else LiftInconsistent."""
    if len(tensor) != group.num_classes:
        raise LiftInconsistent(f"{len(tensor)} irreducibles for {group.num_classes} classes")
    other = (tensor != np.eye(1, tensor.shape[-1], dtype=np.int64)).any(axis=(1, 2))
    if len(tensor) - other.sum() != 1:
        raise LiftInconsistent("principal character missing from the lifted table")
    # the principal row first, the rest ascending by their coefficients, the
    # first of which is the degree (np.lexsort sorts by its last key first)
    keys = tensor.reshape(len(tensor), -1).T[::-1]
    table = CharacterTable(group, group.exponent, tensor[np.lexsort((*keys, other))])

    if sum(d * d for d in table.degrees) != group.order:
        raise LiftInconsistent("degree squares do not sum to the group order")
    defect = _orthogonality_defect(table)
    if defect:
        raise LiftInconsistent(f"orthogonality failed exactly: {defect}")
    return table


def quotient_table(table, qm):
    """The table of the quotient of a p-group, read off the table of G: the
    irreducibles of G/N are the rows of G's table whose kernel contains N,
    read at the first class of G over each class of G/N (Isaacs, Lemma 2.22),
    stored as the quotient's table.

    The values come down from the exponent e of G to the exponent e' of G/N
    exactly: for p-groups the power basis of Q(zeta_e') is the basis of
    Q(zeta_e) at the stride e / e', so those coefficients are the reduced
    ones, and embedding them back must give the values again."""
    group, quot = qm.source, qm.quotient
    if table.group is not group:
        raise GroupMismatch("the table is not the table of the quotient map's source")
    if group.p_group_prime() is None:
        raise NotAPGroup("quotient tables are read off the parent's table for p-groups")
    order, tensor = table.coefficient_tensor()
    kept = tensor[(tensor[:, qm.class_map == 0] == tensor[:, :1]).all(axis=(1, 2))]
    if len(kept) != quot.num_classes:
        raise LiftInconsistent(f"{len(kept)} rows of G have N in their kernel, G/N has {quot.num_classes} classes")
    _, first = np.unique(qm.class_map, return_index=True)
    values = kept[:, first]
    reduced = values[..., ::order // quot.exponent]
    if reduced.shape[-1] != euler_phi(quot.exponent) or not np.array_equal(
        embed(reduced, quot.exponent, order), values
    ):
        raise LiftInconsistent("a row of the quotient does not lie in Q(zeta) at the quotient's exponent")
    with quot._promotion_lock:
        if quot._character_table is None:
            quot._character_table = _finish_table(quot, reduced)
        return quot._character_table
