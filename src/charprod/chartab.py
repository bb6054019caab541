"""Exact character tables via the Dixon-Schneider method.

Class-sum matrices, each formed only when the split reaches it, are split
into common eigenspaces over GF(q) with q = 1 (mod exponent) and
q > 2 ceil(sqrt(|G|)); degrees and eigenvalue multiplicities are lifted to
integers (they lie below sqrt(|G|) < q/2) and the values re-assembled as exact
cyclotomics through the discrete Fourier sum over the power map.  The finished
table must pass exact row and column orthogonality, otherwise the build fails.
"""

from __future__ import annotations

import math

import numpy as np

from .charops import ClassFunction
from .cyclotomic import _reduction_matrix, fits, matmul_exact, max_abs, products_exact
from .errors import EigensplitStall, LiftInconsistent
from .modular import (
    charpoly_mod,
    find_prime,
    inv_mod,
    nth_root_of_unity,
    nullspace_mod,
    poly_roots_mod,
    solve_columns_mod,
)


def class_constants(group, i):
    """The class matrix M_i[j, k] = #{x in C_i : x^(-1) z_k in C_j} for a fixed
    z_k in C_k, that is #{(x, y) in C_i x C_j : xy = z_k}; its right
    eigenvectors are the central characters."""
    m = group.num_classes
    members = np.array(group.classes[i].members)
    y = group.products(group.inverses[members][:, None], group.class_reps[None, :])
    cells = group.class_of[y] * m + np.arange(m)
    return np.bincount(cells.ravel(), minlength=m * m).reshape(m, m)


class CharacterTable:
    """The irreducible characters of a group, deterministically indexed:
    the principal character first, the rest by (degree, value key)."""

    def __init__(self, group, irreducibles):
        self.group = group
        self.irreducibles = tuple(irreducibles)
        self.degrees = tuple(chi.degree().as_integer() for chi in self.irreducibles)
        self.prime_p = group.p_group_prime()
        self._row_lookup = {chi.value_key(): i for i, chi in enumerate(self.irreducibles)}
        self._conj_rows = None
        self._tensor = None

    @property
    def size(self):
        return len(self.irreducibles)

    def index_of(self, f):
        """Row index of an irreducible given as a ClassFunction, else None."""
        return self._row_lookup.get(f.value_key())

    def conjugate_index(self, i):
        """Index of the complex conjugate of irreducible i."""
        if self._conj_rows is None:
            inv = list(self.group.inverse_class())
            self._conj_rows = tuple(
                self._row_lookup[ClassFunction.from_coefficients(self.group, chi.order, chi.num[inv], chi.den).value_key()]
                for chi in self.irreducibles
            )
        return self._conj_rows[i]

    def linear_indices(self):
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)

    def coefficient_tensor(self):
        """Integer coefficients of every value at the common order, shape
        (irreducibles, classes, phi(order)): the stacked rows of the
        irreducibles.  Values are algebraic integers.  This is the one integer
        image of the table; it is built once, under the group's lock."""
        if self._tensor is None:
            with self.group._promotion_lock:
                if self._tensor is None:
                    order = self.irreducibles[0].order
                    if any(chi.den != 1 or chi.order != order for chi in self.irreducibles):
                        raise LiftInconsistent("table rows are not algebraic integers at one order")
                    self._tensor = order, np.stack([chi.num for chi in self.irreducibles])
        return self._tensor

    def to_text(self):
        lines = []
        g = self.group
        lines.append("sizes  " + " ".join(str(c.size).rjust(6) for c in g.classes))
        lines.append("orders " + " ".join(str(g.element_order(c.representative)).rjust(6) for c in g.classes))
        for i, chi in enumerate(self.irreducibles):
            row = " ".join(v.to_text().rjust(6) for v in chi.values)
            lines.append(f"X{i:<5} {row}")
        return "\n".join(lines)

    def to_json(self):
        g = self.group
        return {
            "order": g.order,
            "classes": [
                {
                    "index": j,
                    "size": c.size,
                    "representative_order": g.element_order(c.representative),
                    "representative": g.element(c.representative).to_text(),
                }
                for j, c in enumerate(g.classes)
            ],
            "irreducibles": [
                {"index": i, "degree": self.degrees[i], "values": chi.to_json()}
                for i, chi in enumerate(self.irreducibles)
            ],
        }

    def __repr__(self):
        return f"CharacterTable(order={self.group.order}, irreducibles={self.size})"


def _split_eigenspaces(group, q):
    """Common eigenspaces of the class matrices over GF(q), split by applying
    the matrices in ascending class index until every space is 1-dimensional.
    A space is an echelon basis (columns) with the rows at its pivots forming
    the identity, so a class matrix acts on it by the image's pivot rows.
    Each class matrix makes one product, with the open bases side by side,
    and each space one product with its eigenspace kernels side by side; a
    space on which the class matrix acts as a scalar stays as it is."""
    m = group.num_classes
    fits(m * (q - 1) ** 2)
    spaces = [(np.eye(m, dtype=np.int64), np.arange(m))]
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
            action = solve_columns_mod(basis, pivots, images[:, start:start + k], q)
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
    inv_class = np.asarray(group.inverse_class())
    sums = matmul_exact(omega * omega[..., inv_class] % q, inv_sizes) % q
    limit = math.isqrt(group.order)
    degrees = []
    for s in sums.ravel().tolist():
        dsq = group.order * inv_mod(s, q) % q
        hits = [d for d in range(1, limit + 1) if d * d % q == dsq]
        if len(hits) != 1:
            raise LiftInconsistent(f"degree lift ambiguous or missing: {hits}")
        degrees.append(hits[0])
    return np.array(degrees, dtype=np.int64).reshape(sums.shape)


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


def _coefficient_gram(x, y, red):
    """Power-basis coefficients of sum_c x[i, c] * y[j, c] for tables x, y of
    cyclotomic values given by their coefficients (last axis).  The product's
    coefficient of degree s sums the products of the degree-a slice of x and
    the degree-b slice of y over a + b = s: one exact product per slice b
    against all slices a stacked, then reduced by ``red``; exact over Z, by
    the checked bound on every entry and partial sum."""
    ni, c, phi = x.shape
    nj = y.shape[0]
    fits(len(red) * phi * c * max_abs(x) * max_abs(y) * max_abs(red))
    prod = np.zeros((2 * phi - 1, ni, nj), dtype=np.int64)
    blocks = products_exact(x.transpose(2, 0, 1), y.transpose(2, 1, 0))
    for b in range(phi):
        prod[b:b + phi] += next(blocks)
    blocks.close()  # frees the float64 operands before the reduction
    return matmul_exact(prod.reshape(2 * phi - 1, ni * nj).T, red).reshape(ni, nj, phi)


def _orthogonality_defect(table):
    """Exact residuals of both orthogonality relations; empty dict if clean."""
    group = table.group
    order, tensor = table.coefficient_tensor()
    phi = tensor.shape[2]
    inv = list(group.inverse_class())
    conj_tensor = tensor[:, inv, :]
    red = _reduction_matrix(order, 2 * phi - 1)

    reduced = _coefficient_gram(tensor * group.class_sizes[None, :, None], conj_tensor, red)
    n_irr = tensor.shape[0]
    expected = np.zeros_like(reduced)
    expected[np.arange(n_irr), np.arange(n_irr), 0] = group.order
    defects = {}
    if not np.array_equal(reduced, expected):
        defects["rows"] = int(np.abs(reduced - expected).max())

    classes = np.arange(group.num_classes)
    reduced2 = _coefficient_gram(tensor.transpose(1, 0, 2), conj_tensor.transpose(1, 0, 2), red)
    expected2 = np.zeros_like(reduced2)
    expected2[classes, classes, 0] = group.order // group.class_sizes
    if not np.array_equal(reduced2, expected2):
        defects["columns"] = int(np.abs(reduced2 - expected2).max())
    return defects


def verify_orthogonality(table):
    """True iff both orthogonality relations hold exactly."""
    return not _orthogonality_defect(table)


def dixon_table(group, use_cache=True):
    """The exact table of irreducible characters of ``group``, built once per
    group under the group's lock; ``use_cache=False`` rebuilds it."""
    cached = group._character_table
    if use_cache and cached is not None:
        return cached
    with group._promotion_lock:
        if not use_cache or group._character_table is None:
            group._character_table = _build_table(group)
        return group._character_table


def _build_table(group):
    m = group.num_classes
    exponent = group.exponent
    if m == 1:
        return CharacterTable(group, [ClassFunction(group, [1])])

    q = find_prime(exponent, 2 * math.isqrt(group.order - 1) + 2)
    z = nth_root_of_unity(q, exponent)
    vectors = _split_eigenspaces(group, q)
    lift = _value_lift(group, q, z)

    vectors = np.stack(vectors)
    if not vectors[:, 0].all():
        raise LiftInconsistent("central character vanishes on the identity class")
    omegas = vectors * np.array([inv_mod(v, q) for v in vectors[:, 0].tolist()])[:, None] % q
    degrees = _lift_degree(omegas, group, q, lift)
    # m // exponent characters a step, so that each step's (characters,
    # classes, exponent) arrays hold about m^2 entries, as a class matrix does
    step = max(1, m // exponent)
    characters = []
    for i in range(0, len(omegas), step):
        values = _lift_values(omegas[i:i + step], degrees[i:i + step], q, lift)
        characters.extend(ClassFunction.from_coefficients(group, exponent, num) for num in values)

    one = np.zeros_like(characters[0].num)
    one[:, 0] = 1
    principal = [chi for chi in characters if chi.den == 1 and np.array_equal(chi.num, one)]
    if len(principal) != 1:
        raise LiftInconsistent("principal character missing from the lifted table")
    rest = [chi for chi in characters if chi is not principal[0]]
    rest.sort(key=_row_sort_key)
    table = CharacterTable(group, principal + rest)

    if sum(d * d for d in table.degrees) != group.order:
        raise LiftInconsistent("degree squares do not sum to the group order")
    defect = _orthogonality_defect(table)
    if defect:
        raise LiftInconsistent(f"orthogonality failed exactly: {defect}")
    return table


def _row_sort_key(chi):
    # rows of a table have denominator 1, so this orders them as the values do
    return (chi.degree().as_integer(), tuple(chi.num.ravel().tolist()))
