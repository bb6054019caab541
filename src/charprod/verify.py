"""Executable form of the verified statements: the two product theorems, the
square theorem with its constructive monomial witness descent, the counting
lemma, and the eta lower bound, all producing structured reports.

Bulk enumeration runs on images of the exact tables modulo one prime Q > 2B,
B = max chi(1)^2 a bound on every multiplicity read off them (``GroupSession``),
so each residue is its integer.  The per-instance logic then works on those
exact integers; a set of classes (Z(chi), supp chi, V(chi), a normal
subgroup) is one boolean row over the classes.

Statements A and B decide all pairs of a table at once.  The products are
kept as the rows of the pairs chi <= psi only, as chi psi = psi chi, and
each pair's record is made once, as the dict the report writes.  V(chi)
and V(chi psi) are both the first lattice member holding a set of classes,
found for all the sets at once by one exact 0/1 product against the
members' complements, whose entries count the classes outside each member.
Statement C searches a witness only for a nonlinear chi: a linear chi is
its own witness on G, since induction from G to G is the identity and the
square of a linear irreducible is a linear irreducible, so the rows of all
their squares are read off once per table.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import catalog
from .charops import (
    ClassFunction,
    InducedContext,
    center_masks,
    center_of,
    clifford_correspondent,
    decompose,
    induce,
    inner_product,
    kernel_of,
    restrict,
    stabilizer_and_orbit,
)
from .chartab import _split_prime, dixon_table, modular_values, quotient_table
from .cyclotomic import _reduction_matrix, embed, factorize, fits, matmul_exact, root_exponents, value_json
from .errors import (
    CharprodError,
    GroupMismatch,
    HypothesisNotMet,
    NotAPGroup,
    NotNormal,
    SearchExhausted,
)
from .modular import inv_mod
from .structure import chief_factor_above, normal_lattice, quotient

STATEMENTS = ("A", "B", "C", "lemma", "bound")

PASS = "pass"
FAIL = "fail"
HYPOTHESIS = "hypothesis-not-met"
SKIPPED = "skipped"


@dataclass
class GroupReport:
    """The checks of one group.  Their statuses are counted once, when the
    summary is first read, so the checks are all in by then."""

    group_id: str
    order: int
    prime: int | None
    checks: list = field(default_factory=list)

    @cached_property
    def summary(self):
        counts = Counter(c["status"] for c in self.checks)
        return {"pass": counts[PASS], "fail": counts[FAIL], "hypothesis_not_met": counts[HYPOTHESIS],
                "skipped": counts[SKIPPED]}

    @property
    def failures(self):
        return [c for c in self.checks if c["status"] == FAIL] if self.summary["fail"] else []

    def to_json(self):
        return {
            "group": {"id": self.group_id, "order": self.order, "p": self.prime},
            "checks": self.checks,
            "summary": self.summary,
        }


@dataclass
class SuiteReport:
    reports: list

    @property
    def all_pass(self):
        return not self.summary["fail"]

    @cached_property
    def summary(self):
        """The sum of the groups' summaries."""
        total = {"pass": 0, "fail": 0, "hypothesis_not_met": 0, "skipped": 0}
        for r in self.reports:
            for k, v in r.summary.items():
                total[k] += v
        return total

    def to_json(self):
        return {"groups": [r.to_json() for r in self.reports], "summary": self.summary}


# -- the per-group workspace ---------------------------------------------------


def _group_lattice(group, table):
    with group._promotion_lock:
        if group._normal_lattice is None:
            group._normal_lattice = normal_lattice(group, table)
        return group._normal_lattice


class GroupSession:
    """All per-group precomputation the statement checks share, on the images
    (``modular_values``) of G's table and its lattice members' tables at the
    row check's prime Q = 1 (mod e), e the exponent, where m (Q - 1)^2 <
    2^53 for G's m classes.  Each multiplicity read off them is at most
    B = max chi(1)^2, by the degree identities: [chi psi, theta] <= chi(1)
    psi(1) / theta(1) and [chi_N, phi] <= chi(1).  So Q > 2B, asserted here,
    makes each residue its integer.

    Each input is kept once: the products as the rows of the pairs i <= j,
    with ``pair_index`` and ``eta`` as n x n arrays, and Z(chi), supp chi and
    V(chi) as boolean irreducibles x classes masks, like the lattice's."""

    def __init__(self, group, group_id):
        self.group = group
        self.group_id = group_id
        self.table = dixon_table(group)
        self.p = group.p_group_prime()
        self.degrees = np.array(self.table.degrees, dtype=np.int64)
        self.bound = int(self.degrees.max()) ** 2
        self.q, self.z = _split_prime(group.exponent, group.num_classes)
        if self.q <= 2 * self.bound:
            raise CharprodError(f"the image prime {self.q} is not above twice the multiplicity bound {self.bound}")
        self.values = modular_values(*self.table.coefficient_tensor(), self.q, self.z, group.exponent)
        self._products = None
        self._eta = None
        self._pair_index = None
        self._zmasks = None
        self._supports = None
        self._vmasks = None
        self._normal_data = None
        # kernel -> (quotient map, quotient table), shared by the witness searches
        self._quotients = {}

    # product decompositions --------------------------------------------

    @property
    def products(self):
        """The pair rows: row k holds the multiplicity of each irreducible t
        in chi_i chi_j for the k-th pair i <= j of ``np.triu_indices(n)``,
        from one exact product, exact by the class docstring's bound.  As
        chi psi = psi chi, ``pair_index[i, j]`` is the row of (i, j) and of
        (j, i), and eta[i, j] is that row's number of constituents.  The
        bound, the degree identity and the principal constituent of
        chi conj(chi) are checked on the rows, so on every pair."""
        if self._products is None:
            v, q = self.values, self.q
            n_irr, m = v.shape
            fits(m * (q - 1) ** 2)
            pi, pj = np.triu_indices(n_irr)
            pv = v[pi] * v[pj] % q * self.group.class_sizes % q
            rows = matmul_exact(pv, v[:, self.group.inverse_class()].T) % q * inv_mod(self.group.order, q) % q
            if int(rows.max()) > self.bound:
                raise CharprodError("product multiplicity exceeded its a-priori bound")
            degs = self.degrees
            if not np.array_equal(matmul_exact(rows, degs), degs[pi] * degs[pj]):
                raise CharprodError("product decompositions fail the degree identity")
            index = _pair_index(n_irr)
            conj = [self.table.conjugate_index(i) for i in range(n_irr)]
            if (rows[index[np.arange(n_irr), conj], 0] != 1).any():
                raise CharprodError("principal character missing from chi * conj(chi)")
            self._products, self._eta, self._pair_index = rows, (rows > 0).sum(axis=1)[index], index
        return self._products

    @property
    def eta(self):
        self.products
        return self._eta

    @property
    def pair_index(self):
        self.products
        return self._pair_index

    # class masks -------------------------------------------------------

    @property
    def zmasks(self):
        """Z(chi) per irreducible (``center_masks``), a boolean irreducibles x classes mask."""
        if self._zmasks is None:
            self._zmasks = center_masks(*self.table.coefficient_tensor())
        return self._zmasks

    @property
    def supports(self):
        """supp chi per irreducible, as a boolean irreducibles x classes mask."""
        if self._supports is None:
            self._supports = self.table.coefficient_tensor()[1].any(axis=2)
        return self._supports

    @property
    def lattice(self):
        return _group_lattice(self.group, self.table)

    @property
    def vmasks(self):
        """V(chi) per irreducible, the normal closure of supp chi, as a
        boolean irreducibles x classes mask: its lattice member's row."""
        if self._vmasks is None:
            members = self.lattice.masks
            self._vmasks = members[_normal_closures(self.supports, members)]
        return self._vmasks

    # normal subgroup data -----------------------------------------------

    @property
    def normal_data(self):
        """Per lattice member: context, restriction-multiplicity matrix and
        the derived vectors the checks need.  Twins (``InducedContext.build``)
        share the first one's image; a twin's own table is not read.  The
        size-weighted conjugate values of H are summed over the H-classes in
        each G-class first, so the product's inner dimension is at most G's m."""
        if self._normal_data is None:
            out = []
            q = self.q
            # the weighted values lie below (Q - 1)^2, each product sums at most m
            fits(self.group.num_classes * (q - 1) ** 2)
            shared = {}
            for idx, member in enumerate(self.lattice.members):
                ctx = InducedContext.build(self.group, member)
                first = ctx.group._twin_of or ctx.group
                if first not in shared:
                    sub = dixon_table(first)
                    values = modular_values(*sub.coefficient_tensor(), q, self.z, self.group.exponent)
                    weighted = values[:, first.inverse_class()].T * (first.class_sizes[:, None] % q) % q
                    shared[first] = weighted, np.array(sub.degrees, dtype=np.int64)
                weighted, degrees = shared[first]
                # each G-class sums the residues of at most m_H classes of H
                fits(ctx.group.num_classes * (q - 1))
                by_class = np.argsort(ctx.fusion, kind="stable")
                cols, starts = np.unique(ctx.fusion[by_class], return_index=True)
                fused = np.add.reduceat(weighted[by_class], starts, axis=0) % q
                r = matmul_exact(self.values[:, cols], fused) % q * inv_mod(ctx.group.order, q) % q
                if int(r.max()) > self.bound:
                    raise CharprodError("restriction multiplicity exceeded its bound")
                if not np.array_equal(matmul_exact(r, degrees), self.degrees):
                    raise CharprodError("restriction matrix fails the degree identity")
                positive = r > 0
                col_support = positive.sum(axis=0)
                single = col_support == 1
                top_row = positive.argmax(axis=0)
                top_value = r[top_row, np.arange(r.shape[1])]
                inducer_exists = np.zeros(r.shape[0], dtype=bool)
                inducer_exists[top_row[single]] = True
                out.append(
                    {
                        "index": idx,
                        "member": member,
                        "ctx": ctx,
                        "R": r,
                        "col_support": col_support,
                        "single_mult": top_value,
                        "inducer_exists": inducer_exists,
                        "normal_index": self.group.order // member.order,
                    }
                )
            self._normal_data = out
        return self._normal_data


# -- statement checks ----------------------------------------------------------


def _record(statement, instance, status, witness=None):
    """One check as the report writes it: the witness only when there is one."""
    out = {"statement": statement, "instance": instance, "status": status}
    if witness is not None:
        out["witness"] = witness
    return out


def _require_p_group(session, statement):
    if session.p is None:
        raise NotAPGroup(f"statement {statement} requires a p-group")


def _pair_checks(statement, session, verdicts):
    """One record per ordered pair (chi, psi): a skipped duplicate when
    chi > psi, hypothesis-not-met when eta(chi psi) >= p, else a pass or, when
    ``verdicts`` holds a witness for (chi, psi), a failure."""
    p = session.p
    checks = []
    for i, row in enumerate(session.eta.tolist()):
        checks.extend({"statement": statement, "instance": {"chi": i, "psi": j}, "status": SKIPPED,
                       "witness": {"duplicate_of": [j, i]}} for j in range(i))
        for j in range(i, len(row)):
            record = {"statement": statement, "instance": {"chi": i, "psi": j}, "status": PASS}
            if row[j] >= p:
                record["status"], record["witness"] = HYPOTHESIS, {"eta": row[j]}
            elif (i, j) in verdicts:
                record["status"], record["witness"] = FAIL, verdicts[i, j]
            checks.append(record)
    return checks


def _pair_index(n):
    """The n x n array whose (i, j) and (j, i) entries are the position of
    the pair (min(i, j), max(i, j)) in ``np.triu_indices(n)``."""
    pi, pj = np.triu_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[pi, pj] = index[pj, pi] = np.arange(len(pi))
    return index


def _normal_closures(classes, members):
    """Per row of ``classes`` (a boolean mask over the classes), the index of
    the first of the lattice ``members`` (boolean rows, in lattice order)
    that holds it: the smallest normal subgroup holding those classes, their
    normal closure.  A member holds them when it leaves none of them out,
    which one 0/1 product against the members' complements counts."""
    contained = matmul_exact(classes, ~members.T) == 0
    if not contained.any(axis=1).all():
        raise NotNormal("no lattice member contains the classes (engine bug)")
    return contained.argmax(axis=1)


def check_theorem_A(group, group_id="group", session=None):
    """Z(chi psi) = Z(theta) and V(theta) <= V(chi psi) <= V(chi) & V(psi)
    for every constituent theta of every product with fewer than p distinct
    constituents.

    One array pass decides every pair chi <= psi in the hypothesis at once,
    on the session's masks of Z(chi), supp chi and V(chi) and the lattice
    members' masks, read when the check runs.  Z(chi psi) is Z(chi) & Z(psi),
    and V(chi psi) is the normal closure of supp chi & supp psi, found by
    ``_normal_closures`` as V(chi) is.  The constituent tests run on the
    occurrences (pair, theta) of positive multiplicity only, gathered once:
    each compares the masks of Z(theta) and Z(chi psi) class by class, and
    looks for a class of V(theta) outside V(chi psi).  A pair fails when
    V(chi psi) escapes V(chi) & V(psi), else at its first failing
    constituent theta, the Z test before the V test; only failing pairs get
    a witness built."""
    session = session or GroupSession(group, group_id)
    _require_p_group(session, "A")
    a, eta = session.products, session.eta
    z, support, v = session.zmasks, session.supports, session.vmasks
    members = session.lattice.masks

    pi, pj = np.triu_indices(len(eta))
    keep = eta[pi, pj] < session.p
    pi, pj = pi[keep], pj[keep]
    v_prod = members[_normal_closures(support[pi] & support[pj], members)]
    z_prod = z[pi] & z[pj]
    escapes = (v_prod & ~(v[pi] & v[pj])).any(axis=1)
    # the occurrences (pair k, constituent theta), by k and then by theta, and
    # the two tests on each
    ks, thetas = np.nonzero((a > 0)[keep])
    z_differs = (z_prod[ks] != z[thetas]).any(axis=1)
    v_escapes = (v[thetas] & ~v_prod[ks]).any(axis=1)
    fails = np.flatnonzero(z_differs | v_escapes)
    # the first failing occurrence of each pair
    failing_pairs, first = np.unique(ks[fails], return_index=True)
    first_fail = dict(zip(failing_pairs.tolist(), fails[first].tolist()))
    verdicts = {}
    for k in np.union1d(np.flatnonzero(escapes), failing_pairs).tolist():
        i, j = int(pi[k]), int(pj[k])
        if escapes[k]:
            bad = {"reason": "V(chi psi) escapes V(chi) & V(psi)"}
        else:
            t = int(thetas[first_fail[k]])
            if z_differs[first_fail[k]]:
                bad = {"theta": t, "reason": "Z(chi psi) != Z(theta)",
                       "z_product_classes": np.flatnonzero(z_prod[k]).tolist(),
                       "z_theta_classes": np.flatnonzero(z[t]).tolist()}
            else:
                bad = {"theta": t, "reason": "V(theta) escapes V(chi psi)"}
        bad["eta"] = int(eta[i, j])
        verdicts[i, j] = bad
    return _pair_checks("A", session, verdicts)


def check_theorem_B(group, group_id="group", session=None):
    """Whenever some member of Irr(N) induces to a multiple of chi, every
    member of Irr(N) under the product induces to a multiple of one
    irreducible (and to an irreducible itself when |G:N| = p).

    One product over all normal subgroups decides it.  Column gamma of N is
    bad when gamma^G has other than one distinct constituent, or, at index p,
    a multiple of one.  A pair fails at N when chi or psi has an inducer in
    Irr(N) and a constituent of chi psi lies over a bad gamma; the witness is
    the first such N in lattice order and its first such gamma.  A pair over
    gamma can see gamma^G leave chi psi only when gamma lies under two
    irreducibles, so gamma is bad: no second verdict is needed, as long as
    ``col_support`` is R's column support, which ``normal_data`` builds."""
    session = session or GroupSession(group, group_id)
    _require_p_group(session, "B")
    p = session.p
    a = session.products
    eta = session.eta
    n = len(eta)
    normals = session.normal_data

    pi, pj = np.triu_indices(n)
    keep = eta[pi, pj] < p
    pi, pj = pi[keep], pj[keep]
    # which irreducibles occur in each product chi psi
    occurs = (a > 0)[keep]
    bad_cols = [(d["col_support"] != 1) | ((d["normal_index"] == p) & (d["single_mult"] != 1))
                for d in normals]
    # bad[xi, N]: xi lies over a bad column of N; inducer[xi, N]: some member
    # of Irr(N) induces to a multiple of xi
    bad = np.stack([(d["R"][:, cols] > 0).any(axis=1) for d, cols in zip(normals, bad_cols)], axis=1)
    inducer = np.stack([d["inducer_exists"] for d in normals], axis=1)
    fails = (matmul_exact(occurs, bad) > 0) & (inducer[pi] | inducer[pj])
    verdicts = {}
    for k in np.flatnonzero(fails.any(axis=1)).tolist():
        col = int(fails[k].argmax())
        data = normals[col]
        under = occurs[k] @ (data["R"] > 0)
        gamma = int(np.flatnonzero(bad_cols[col] & under)[0])
        verdicts[int(pi[k]), int(pj[k])] = {
            "normal": data["index"],
            "normal_order": data["member"].order,
            "gamma": gamma,
            "eta_gamma_induced": int(data["col_support"][gamma]),
        }
    return _pair_checks("B", session, verdicts)


def check_theorem_C(group, group_id="group", session=None):
    """[chi^2, chi] = 0; for odd p no linear constituents in chi^2 of a
    nonlinear chi; and the square has a constituent of degree chi(1) exhibited
    by a monomial witness.  Non-p-groups run in fixture mode."""
    session = session or GroupSession(group, group_id)
    checks = []
    p = session.p
    a, eta, index = session.products, session.eta, session.pair_index
    table = session.table
    order, tensor = table.coefficient_tensor()
    linear = list(table.linear_indices())
    fixture = p is None

    def record(part, i, status, witness=None):
        checks.append(_record("C", {"part": part, "chi": i}, status, witness))

    for i in range(table.size):
        square = a[index[i, i]]
        self_mult = int(square[i])
        lin_vals = {int(l): int(square[l]) for l in linear}
        eta_sq = int(eta[i, i])
        deg = table.degrees[i]
        has_deg = any(table.degrees[int(t)] == deg for t in np.nonzero(square)[0])

        if fixture:
            record("i", i, HYPOTHESIS, {"fixture": True, "inner_chi2_chi": self_mult})
            record("ii", i, HYPOTHESIS, {"fixture": True, "linear_multiplicities": lin_vals})
            record("iii", i, HYPOTHESIS, {"fixture": True, "eta_chi2": eta_sq, "has_degree_constituent": has_deg})
            continue

        if i == 0:
            record("i", i, HYPOTHESIS, {"reason": "chi is the principal character"})
        elif self_mult == 0:
            record("i", i, PASS)
        else:
            record("i", i, FAIL, {"inner_chi2_chi": self_mult})

        if p == 2 or deg == 1:
            record("ii", i, HYPOTHESIS, {"reason": "requires odd p and chi(1) > 1"})
        elif all(v == 0 for v in lin_vals.values()):
            record("ii", i, PASS)
        else:
            record("ii", i, FAIL, {"linear_multiplicities": lin_vals})

        if p == 2 and eta_sq >= p:
            record("iii", i, HYPOTHESIS, {"reason": "p = 2 and eta(chi^2) >= 2", "eta_chi2": eta_sq})
            continue
        chi_cf = ClassFunction.from_coefficients(group, order, tensor[i])
        try:
            witness = _witness(group, table, i, chi_cf, session._quotients)
        except SearchExhausted as exc:
            record("iii", i, FAIL, {"reason": "monomial witness search exhausted", "trail": exc.trail})
            continue
        if has_deg:
            record("iii", i, PASS, witness.to_json())
        else:
            record("iii", i, FAIL, {"reason": "no constituent of degree chi(1)", "eta_chi2": eta_sq})
    return checks


def check_lemma_counting(group, group_id="group", session=None):
    """|Irr(G | phi)| is 1 or at least p, per normal subgroup and phi."""
    session = session or GroupSession(group, group_id)
    _require_p_group(session, "lemma")
    checks = []
    p = session.p
    for data in session.normal_data:
        for k, count in enumerate(data["col_support"].tolist()):
            instance = {"normal": data["index"], "normal_order": data["member"].order, "phi": k}
            checks.append(_record("lemma", instance, PASS if count == 1 or count >= p else FAIL, {"count": count}))
    return checks


def check_eta_bound(group, group_id="group", session=None):
    """eta(chi conj(chi)) >= 2n(p-1)+1 whenever chi(1) = p^n with n >= 1."""
    session = session or GroupSession(group, group_id)
    _require_p_group(session, "bound")
    checks = []
    p = session.p
    a, eta, index = session.products, session.eta, session.pair_index
    table = session.table
    for i, deg in enumerate(table.degrees):
        instance = {"chi": i}
        if deg == 1:
            checks.append(_record("bound", instance, SKIPPED, {"reason": "chi is linear"}))
            continue
        n_exp = dict(factorize(deg)).get(p, 0)
        if p**n_exp != deg:
            checks.append(_record("bound", instance, FAIL,
                                  {"reason": "degree is not a power of p", "degree": deg}))
            continue
        jbar = table.conjugate_index(i)
        value = int(eta[i, jbar])
        principal_mult = int(a[index[i, jbar], 0])
        required = 2 * n_exp * (p - 1) + 1
        witness = {"eta": value, "required": required, "principal_multiplicity": principal_mult}
        holds = principal_mult == 1 and value >= required
        checks.append(_record("bound", instance, PASS if holds else FAIL, witness))
    return checks


# -- the monomial witness descent ----------------------------------------------


@dataclass
class MonomialWitness:
    """A subgroup H and linear alpha with alpha^G = chi and (alpha^2)^G
    irreducible, plus the descent chain that produced them."""

    chi_index: int
    subgroup_order: int
    subgroup_index: int
    subgroup_generators: list
    alpha_values: list
    chain: list
    square_induced_index: int

    def to_json(self):
        return {
            "chi": self.chi_index,
            "subgroup_order": self.subgroup_order,
            "subgroup_index": self.subgroup_index,
            "subgroup_generators": self.subgroup_generators,
            "alpha_values": self.alpha_values,
            "chain": self.chain,
            "square_induced_index": self.square_induced_index,
        }


def _verify_witness(table, chi_cf, h_ctx, alpha):
    """alpha^G = chi exactly and (alpha^2)^G irreducible; returns the index of
    the induced square or None when the branch is dead."""
    if induce(alpha, h_ctx) != chi_cf:
        return None
    square = induce(alpha * alpha, h_ctx)
    if inner_product(square, square, characters=True) != 1:
        return None
    return table.index_of(square)


def _descend(group, table, chi_cf, trail, quotients):
    """Return (h_ctx, alpha, chain, square_idx) with alpha linear on
    h_ctx.group, alpha^group = chi_cf and (alpha^2)^group irreducible, the
    row ``square_idx`` of ``table``: each level above a linear chi_cf
    verifies its own witness once.  A linear chi_cf, where a chain ends, is
    its own witness on the whole group, which no check can refute (induction
    to the group itself is the identity and the square of a linear character
    is linear), so it comes back unchecked, with square_idx None; a search
    for a linear chi does not descend at all.  ``quotients`` maps each
    kernel to its (quotient map, quotient table), made once."""
    deg = chi_cf.degree().as_integer()
    if deg == 1:
        return InducedContext.build(group, group.full_subgroup()), chi_cf, [], None

    kernel = kernel_of(chi_cf)
    if kernel.order > 1:
        if kernel not in quotients:
            qm = quotient(group, kernel)
            quotients[kernel] = qm, quotient_table(table, qm)
        qm, qtable = quotients[kernel]
        order, tensor = qtable.coefficient_tensor()
        # the row of the quotient whose inflation is chi
        inflated = embed(tensor, order, chi_cf.order)[:, qm.class_map]
        rows = np.flatnonzero((inflated == chi_cf.num).all(axis=(1, 2)))
        if chi_cf.den != 1 or len(rows) != 1:
            raise CharprodError("character does not descend to the quotient (engine bug)")
        sub_ctx, sub_alpha, sub_chain, _ = _descend(
            qm.quotient, qtable, qtable.irreducibles[rows[0]], trail, quotients
        )
        h_ctx = InducedContext.build(group, np.flatnonzero(sub_ctx.from_parent[qm.projection] >= 0))
        reps = h_ctx.to_parent[h_ctx.group.class_reps]
        classes = sub_ctx.group.class_of[sub_ctx.from_parent[qm.projection[reps]]]
        alpha = ClassFunction.from_coefficients(h_ctx.group, sub_alpha.order, sub_alpha.num[classes], sub_alpha.den)
        step = {"step": "quotient", "kernel_order": kernel.order,
                "quotient_order": qm.quotient.order}
        square_idx = _verify_witness(table, chi_cf, h_ctx, alpha)
        if square_idx is None:
            raise SearchExhausted("pullback through the quotient failed verification", trail)
        return h_ctx, alpha, [step] + sub_chain, square_idx

    z_sub = center_of(chi_cf)
    ctx_z = InducedContext.build(group, z_sub)
    zeta = restrict(chi_cf, ctx_z) * Fraction(1, deg)
    lattice = _group_lattice(group, table)
    for y_member in chief_factor_above(lattice, z_sub):
        ctx_y = InducedContext.build(group, y_member)
        z_in_y = InducedContext.build(
            ctx_y.group, ctx_y.from_parent[ctx_z.to_parent], subgroup_group=ctx_z.group
        )
        chi_y = restrict(chi_cf, ctx_y)
        table_y = ctx_y.table
        for iota_idx in table_y.linear_indices():
            iota = table_y.irreducibles[iota_idx]
            if restrict(iota, z_in_y) != zeta:
                continue
            if inner_product(chi_y, iota, characters=True) == 0:
                continue
            stab, orbit = stabilizer_and_orbit(iota, ctx_y)
            if stab.order == group.order:
                trail.append({"step": "invariant-extension", "y_order": y_member.order,
                              "iota": iota_idx})
                continue
            ctx_stab = InducedContext.build(group, stab)
            correspondent = clifford_correspondent(chi_cf, iota, ctx_y, ctx_stab)
            try:
                sub_ctx, alpha, sub_chain, _ = _descend(
                    ctx_stab.group, ctx_stab.table, correspondent, trail, quotients
                )
            except SearchExhausted:
                continue
            h_ctx = InducedContext.build(
                group, ctx_stab.to_parent[sub_ctx.to_parent], subgroup_group=sub_ctx.group
            )
            square_idx = _verify_witness(table, chi_cf, h_ctx, alpha)
            if square_idx is None:
                trail.append({"step": "dead-branch", "y_order": y_member.order,
                              "iota": iota_idx, "stabilizer_order": stab.order})
                continue
            step = {
                "step": "clifford",
                "level_order": group.order,
                "y_order": y_member.order,
                "iota": iota_idx,
                "stabilizer_order": stab.order,
                "orbit_size": len(orbit),
                "degree": deg,
                "correspondent_degree": correspondent.degree().as_integer(),
            }
            return h_ctx, alpha, [step] + sub_chain, square_idx
    raise SearchExhausted("every descent branch died", trail)


def monomial_witness_search(group, chi, table=None):
    """Monomial witness for chi: H <= G and linear alpha with alpha^G = chi and
    (alpha^2)^G irreducible, found by the Clifford descent with backtracking;
    at p = 2 only when eta(chi^2) < 2, read off one ``decompose`` of chi^2."""
    p = group.p_group_prime()
    if p is None:
        raise NotAPGroup("monomial witness search runs on p-groups")
    table = table or dixon_table(group)
    if table.group is not group:
        raise GroupMismatch("the table belongs to another group")
    if isinstance(chi, int):
        if not 0 <= chi < table.size:
            raise CharprodError(f"character index {chi} outside [0, {table.size})")
        chi_index = chi
        # a ClassFunction of this row only: the search reads no other row
        order, tensor = table.coefficient_tensor()
        chi_cf = ClassFunction.from_coefficients(group, order, tensor[chi_index])
    else:
        chi_cf = chi
        chi_index = table.index_of(chi_cf)
        if chi_index is None:
            raise CharprodError("expected an irreducible of the table")
    if p == 2 and (eta_sq := decompose(chi_cf * chi_cf, table).eta) >= 2:
        raise HypothesisNotMet(f"p = 2 and eta(chi^2) = {eta_sq} >= 2")
    return _witness(group, table, chi_index, chi_cf, {})


def _witness(group, table, chi_index, chi_cf, quotients):
    """The witness of ``chi_cf``, row ``chi_index`` of ``table``; its descent
    keeps its quotients by kernel in ``quotients``.  A linear chi is its own
    witness (G, chi) with an empty chain and the row of its square to find:
    induction from G to G is the identity, and on a finished table (one row
    per class, exact orthogonality) the square of a linear irreducible is
    linear, so a row.  A table on which it is not a row ends the search as a
    failed check would.  The squares, G's generator texts and the table's
    value texts are made once per table (``_whole_group_witnesses``)."""
    if table.degrees[chi_index] == 1:
        generators, values, squares = _whole_group_witnesses(group, table)
        square_idx = squares[chi_index]
        if square_idx is None:
            raise SearchExhausted("a linear character failed verification")
        return MonomialWitness(
            chi_index=chi_index,
            subgroup_order=group.order,
            subgroup_index=1,
            subgroup_generators=list(generators),
            alpha_values=list(values[chi_index]),
            chain=[],
            square_induced_index=square_idx,
        )
    h_ctx, alpha, chain, square_idx = _descend(group, table, chi_cf, [], quotients)
    sub = h_ctx.subgroup
    return MonomialWitness(
        chi_index=chi_index,
        subgroup_order=sub.order,
        subgroup_index=group.order // sub.order,
        subgroup_generators=[group.element(g).to_text() for g in sub.generators()],
        alpha_values=alpha.to_json(),
        chain=chain,
        square_induced_index=square_idx,
    )


_WHOLE_GROUP_WITNESSES = weakref.WeakKeyDictionary()


def _whole_group_witnesses(group, table):
    """(text of each generator of G as a subgroup of itself, ``value_json``
    of every value of the table as nested lists, {chi: row of chi^2, or None
    when it is not a row} over the linear chi), made once per table: what
    the witnesses (G, chi) of its linear chi are made of."""
    memo = _WHOLE_GROUP_WITNESSES.get(table)
    if memo is None:
        sub = InducedContext.build(group, group.full_subgroup()).subgroup
        memo = _WHOLE_GROUP_WITNESSES[table] = (
            [group.element(g).to_text() for g in sub.generators()],
            table._value_texts(value_json),
            _linear_squares(table),
        )
    return memo


def _linear_squares(table):
    """{chi: row of chi^2, or None} over the linear chi of a table.  A value
    of a linear chi is a root of unity zeta^k at the table's order e, row k
    of ``_reduction_matrix(e, e)``, and its square is row 2k mod e, so each
    square is one gather and one key lookup.  A row with a value that is no
    root of unity, which no finished table has, is squared exactly."""
    order, tensor = table.coefficient_tensor()
    linear = list(table.linear_indices())
    rows = tensor[linear]
    k = root_exponents(rows, order)
    keys = table._keys(_reduction_matrix(order, order)[2 * k % order])
    for r in np.flatnonzero((k < 0).any(axis=1)).tolist():
        chi = ClassFunction.from_coefficients(table.group, order, rows[r])
        keys[r] = (chi * chi).value_key()
    return {chi: table._lookup().get(key) for chi, key in zip(linear, keys)}


# -- suite orchestration ---------------------------------------------------------


_CHECKERS = {
    "A": check_theorem_A,
    "B": check_theorem_B,
    "C": check_theorem_C,
    "lemma": check_lemma_counting,
    "bound": check_eta_bound,
}


def _run_group(group_id, group, statements):
    session = GroupSession(group, group_id)
    report = GroupReport(group_id=group_id, order=group.order, prime=session.p)
    for statement in STATEMENTS:
        if statement not in statements:
            continue
        if session.p is None and statement != "C":
            report.checks.append(_record(statement, {"scope": "group"}, HYPOTHESIS,
                                         {"reason": "group order is not a prime power"}))
            continue
        report.checks.extend(_CHECKERS[statement](group, group_id, session=session))
    return report


def run_suite(groups, statements=STATEMENTS):
    """Run the requested statements over groups given as catalog ids or
    (id, Group) pairs; reports are ordered by group id."""
    unknown = [s for s in statements if s not in STATEMENTS]
    if unknown:
        raise CharprodError(f"unknown statements: {unknown}")
    resolved = []
    for entry in groups:
        if isinstance(entry, str):
            resolved.append((entry, catalog.builtin(entry)))
        else:
            resolved.append(entry)
    resolved.sort(key=lambda pair: pair[0])
    return SuiteReport(reports=[_run_group(gid, g, statements) for gid, g in resolved])
