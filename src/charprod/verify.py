"""Executable form of the verified statements: the two product theorems, the
square theorem with its constructive monomial witness descent, the counting
lemma, and the eta lower bound, all producing structured reports.

Bulk enumeration runs on homomorphic images of the exact tables modulo a prime
Q with Q > 2B for an a-priori bound B on every lifted integer (multiplicities
of genuine characters), so each residue determines its integer exactly.  The
per-instance logic then works on those exact integers; subgroup membership is
handled through class-index sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import catalog
from .charops import (
    ClassFunction,
    InducedContext,
    center_of,
    clifford_correspondent,
    decompose,
    induce,
    inner_product,
    kernel_of,
    restrict,
    stabilizer_and_orbit,
)
from .chartab import dixon_table
from .cyclotomic import conjugate, fits, max_abs, multiply
from .errors import (
    CharprodError,
    HypothesisNotMet,
    NotAPGroup,
    SearchExhausted,
)
from .modular import find_prime, inv_mod, nth_root_of_unity
from .structure import chief_factor_above, normal_lattice, quotient

STATEMENTS = ("A", "B", "C", "lemma", "bound")

PASS = "pass"
FAIL = "fail"
HYPOTHESIS = "hypothesis-not-met"
SKIPPED = "skipped"


@dataclass
class CheckResult:
    statement: str
    instance: dict
    status: str
    witness: dict | None = None

    def to_json(self):
        out = {"statement": self.statement, "instance": self.instance, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class GroupReport:
    group_id: str
    order: int
    prime: int | None
    checks: list = field(default_factory=list)

    @property
    def summary(self):
        counts = {PASS: 0, FAIL: 0, HYPOTHESIS: 0, SKIPPED: 0}
        for c in self.checks:
            counts[c.status] += 1
        return {
            "pass": counts[PASS],
            "fail": counts[FAIL],
            "hypothesis_not_met": counts[HYPOTHESIS],
            "skipped": counts[SKIPPED],
        }

    @property
    def failures(self):
        return [c for c in self.checks if c.status == FAIL]

    def to_json(self):
        return {
            "group": {"id": self.group_id, "order": self.order, "p": self.prime},
            "checks": [c.to_json() for c in self.checks],
            "summary": self.summary,
        }


@dataclass
class SuiteReport:
    reports: list

    @property
    def all_pass(self):
        return not any(r.failures for r in self.reports)

    @property
    def summary(self):
        total = {"pass": 0, "fail": 0, "hypothesis_not_met": 0, "skipped": 0}
        for r in self.reports:
            for k, v in r.summary.items():
                total[k] += v
        return total

    def to_json(self):
        return {"groups": [r.to_json() for r in self.reports], "summary": self.summary}


# -- the per-group workspace ---------------------------------------------------


def _group_lattice(group, table):
    lat = getattr(group, "_normal_lattice", None)
    if lat is None:
        lat = normal_lattice(group, table)
        group._normal_lattice = lat
    return lat


class _ModularTable:
    """Image of an exact table modulo Q under zeta -> z, read off the table's
    integer coefficient tensor."""

    def __init__(self, table, q, z, top_exponent):
        self.table = table
        self.q = q
        group = table.group
        order, tensor = table.coefficient_tensor()
        if top_exponent % order:
            raise CharprodError("value order does not divide the imaging order")
        z_local = pow(z, top_exponent // order, q)
        z_powers = np.array([pow(z_local, k, q) for k in range(tensor.shape[2])], dtype=np.int64)
        fits(tensor.shape[2] * max_abs(tensor) * (q - 1))
        self.values = tensor @ z_powers % q
        self.weights = np.array([c.size for c in group.classes], dtype=np.int64)
        inv = list(group.inverse_class())
        self.conj_values = self.values[:, inv]
        self.degrees = np.array(table.degrees, dtype=np.int64)


class GroupSession:
    """All per-group precomputation the statement checks share."""

    def __init__(self, group, group_id):
        self.group = group
        self.group_id = group_id
        self.table = dixon_table(group)
        self.p = group.p_group_prime()
        n = group.order
        self.bound = n * (math.isqrt(n) + 1)
        self.q = find_prime(group.exponent, 2 * self.bound)
        self.z = nth_root_of_unity(self.q, group.exponent)
        self.mod = _ModularTable(self.table, self.q, self.z, group.exponent)
        self._products = None
        self._eta = None
        self._zsets = None
        self._supports = None
        self._vsets = None
        self._lattice = None
        self._normal_data = None
        self._vclosure_memo = {}

    # product decomposition tensor ------------------------------------

    @property
    def products(self):
        """a[i, j, t] = multiplicity of irreducible t in the product of
        irreducibles i and j; exact by the bound argument."""
        if self._products is None:
            v = self.mod.values
            q = self.q
            w = self.mod.weights
            n_irr, m = v.shape
            fits(m * (q - 1) ** 2)
            pv = v[:, None, :] * v[None, :, :] % q * w[None, None, :] % q
            flat = pv.reshape(n_irr * n_irr, m)
            a = flat @ self.mod.conj_values.T % q * inv_mod(self.group.order, q) % q
            a = a.reshape(n_irr, n_irr, n_irr)
            if int(a.max()) > self.bound:
                raise CharprodError("product multiplicity exceeded its a-priori bound")
            degs = self.mod.degrees
            if not np.array_equal(a @ degs, np.outer(degs, degs)):
                raise CharprodError("product decompositions fail the degree identity")
            conj = [self.table.conjugate_index(i) for i in range(n_irr)]
            if any(int(a[i, conj[i], 0]) != 1 for i in range(n_irr)):
                raise CharprodError("principal character missing from chi * conj(chi)")
            self._products = a
            self._eta = (a > 0).sum(axis=2)
        return self._products

    @property
    def eta(self):
        self.products
        return self._eta

    # class-set data ----------------------------------------------------

    def _value_sets(self):
        """Per irreducible: the classes where |chi|^2 = chi(1)^2, and the
        classes where chi does not vanish."""
        if self._zsets is None:
            order, tensor = self.table.coefficient_tensor()
            norms = multiply(tensor, conjugate(tensor, order), order)
            dsq = self.mod.degrees ** 2
            on_center = (norms[:, :, 0] == dsq[:, None]) & ~norms[:, :, 1:].any(axis=2)
            supported = tensor.any(axis=2)
            self._zsets = [frozenset(np.flatnonzero(row).tolist()) for row in on_center]
            self._supports = [frozenset(np.flatnonzero(row).tolist()) for row in supported]
        return self._zsets, self._supports

    @property
    def zsets(self):
        return self._value_sets()[0]

    @property
    def supports(self):
        return self._value_sets()[1]

    @property
    def lattice(self):
        if self._lattice is None:
            self._lattice = _group_lattice(self.group, self.table)
        return self._lattice

    def vclosure(self, class_set):
        """Class set of the subgroup generated by a union of classes."""
        key = frozenset(class_set)
        cached = self._vclosure_memo.get(key)
        if cached is None:
            member = self.lattice.member_containing(key)
            cached = member.class_index_set()
            self._vclosure_memo[key] = cached
        return cached

    @property
    def vsets(self):
        """Class set of V(chi) per irreducible."""
        if self._vsets is None:
            self._vsets = [self.vclosure(s) for s in self.supports]
        return self._vsets

    # normal subgroup data -----------------------------------------------

    @property
    def normal_data(self):
        """Per lattice member: context, restriction-multiplicity matrix and
        the derived vectors the checks need."""
        if self._normal_data is None:
            out = []
            q = self.q
            for idx, member in enumerate(self.lattice.members):
                ctx = InducedContext.build(self.group, member)
                fits(ctx.group.num_classes * (q - 1) ** 2)
                mod_sub = _ModularTable(ctx.table, q, self.z, self.group.exponent)
                fused = self.mod.values[:, list(ctx.fusion)]
                weighted = fused * mod_sub.weights[None, :] % q
                r = weighted @ mod_sub.conj_values.T % q * inv_mod(ctx.group.order, q) % q
                if int(r.max()) > self.bound:
                    raise CharprodError("restriction multiplicity exceeded its bound")
                if not np.array_equal(r @ mod_sub.degrees, self.mod.degrees):
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


def _not_p_group_record(statement):
    return CheckResult(
        statement,
        {"scope": "group"},
        HYPOTHESIS,
        {"reason": "group order is not a prime power"},
    )


def _require_p_group(session, statement):
    if session.p is None:
        raise NotAPGroup(f"statement {statement} requires a p-group")


def check_theorem_A(group, group_id="group", session=None):
    """Z(chi psi) = Z(theta) and V(theta) <= V(chi psi) <= V(chi) & V(psi)
    for every constituent theta of every product with fewer than p distinct
    constituents."""
    session = session or GroupSession(group, group_id)
    _require_p_group(session, "A")
    checks = []
    p = session.p
    a = session.products
    eta = session.eta
    zsets, supports, vsets = session.zsets, session.supports, session.vsets
    n = len(session.table.irreducibles)
    for i in range(n):
        for j in range(n):
            instance = {"chi": i, "psi": j}
            if i > j:
                checks.append(CheckResult("A", instance, SKIPPED, {"duplicate_of": [j, i]}))
                continue
            if eta[i, j] >= p:
                checks.append(CheckResult("A", instance, HYPOTHESIS, {"eta": int(eta[i, j])}))
                continue
            z_prod = zsets[i] & zsets[j]
            v_prod = session.vclosure(supports[i] & supports[j])
            v_cap = vsets[i] & vsets[j]
            bad = None
            if not v_prod <= v_cap:
                bad = {"reason": "V(chi psi) escapes V(chi) & V(psi)"}
            else:
                for t in np.nonzero(a[i, j])[0]:
                    t = int(t)
                    if zsets[t] != z_prod:
                        bad = {"theta": t, "reason": "Z(chi psi) != Z(theta)",
                               "z_product_classes": sorted(z_prod),
                               "z_theta_classes": sorted(zsets[t])}
                        break
                    if not vsets[t] <= v_prod:
                        bad = {"theta": t, "reason": "V(theta) escapes V(chi psi)"}
                        break
            if bad is None:
                checks.append(CheckResult("A", instance, PASS))
            else:
                bad["eta"] = int(eta[i, j])
                checks.append(CheckResult("A", instance, FAIL, bad))
    return checks


def check_theorem_B(group, group_id="group", session=None):
    """Whenever some member of Irr(N) induces to a multiple of chi, every
    member of Irr(N) under the product induces to a multiple of one
    irreducible (and to an irreducible itself when |G:N| = p)."""
    session = session or GroupSession(group, group_id)
    _require_p_group(session, "B")
    checks = []
    p = session.p
    a = session.products
    eta = session.eta
    n = len(session.table.irreducibles)
    normals = session.normal_data

    pi, pj = np.triu_indices(n)
    keep = eta[pi, pj] < p
    pi, pj = pi[keep], pj[keep]
    pairs = list(zip(pi.tolist(), pj.tolist()))
    # which irreducibles occur in each product chi psi
    occurs = (a[pi, pj] > 0).astype(np.float64)
    verdicts = {pair: None for pair in pairs}
    for data in normals:
        if not pairs:
            continue
        r = data["R"]
        over = r > 0
        relevant = data["inducer_exists"][pi] | data["inducer_exists"][pj]
        # under[k, gamma]: how many constituents of pair k lie over gamma.  The
        # entries are counts of at most n irreducibles, far below 2^24, so the
        # floating-point product is exact.
        under = occurs @ over.astype(np.float64)
        bad_cols = data["col_support"] != 1
        if data["normal_index"] == p:
            bad_cols = bad_cols | (data["single_mult"] != 1)
        if bad_cols.any():
            touches = under[:, bad_cols] > 0
            for row in np.nonzero(touches.any(axis=1) & relevant)[0]:
                i, j = pairs[row]
                if verdicts[(i, j)] is None:
                    bad_local = np.nonzero(bad_cols)[0][np.nonzero(touches[row])[0]]
                    gamma = int(bad_local[0])
                    verdicts[(i, j)] = {
                        "normal": data["index"],
                        "normal_order": data["member"].order,
                        "gamma": gamma,
                        "eta_gamma_induced": int(data["col_support"][gamma]),
                    }
        # proof-level consistency: each gamma under (chi psi)_N induces inside
        # the constituents of chi psi itself
        outside = over.sum(axis=0) - under > 0
        lies_under = under > 0
        broken = (lies_under & outside).any(axis=1) & relevant
        for row in np.nonzero(broken)[0]:
            i, j = pairs[row]
            if verdicts[(i, j)] is None:
                gamma = int(np.nonzero(lies_under[row] & outside[row])[0][0])
                verdicts[(i, j)] = {
                    "normal": data["index"],
                    "normal_order": data["member"].order,
                    "gamma": gamma,
                    "reason": "gamma^G has constituents outside chi psi",
                }
    for i in range(n):
        for j in range(n):
            instance = {"chi": i, "psi": j}
            if i > j:
                checks.append(CheckResult("B", instance, SKIPPED, {"duplicate_of": [j, i]}))
            elif eta[i, j] >= p:
                checks.append(CheckResult("B", instance, HYPOTHESIS, {"eta": int(eta[i, j])}))
            elif verdicts[(i, j)] is None:
                checks.append(CheckResult("B", instance, PASS))
            else:
                checks.append(CheckResult("B", instance, FAIL, verdicts[(i, j)]))
    return checks


def check_theorem_C(group, group_id="group", session=None):
    """[chi^2, chi] = 0; for odd p no linear constituents in chi^2 of a
    nonlinear chi; and the square has a constituent of degree chi(1) exhibited
    by a monomial witness.  Non-p-groups run in fixture mode."""
    session = session or GroupSession(group, group_id)
    checks = []
    p = session.p
    a = session.products
    eta = session.eta
    table = session.table
    n = len(table.irreducibles)
    linear = list(table.linear_indices())
    fixture = p is None
    for i in range(n):
        self_mult = int(a[i, i, i])
        lin_vals = {int(l): int(a[i, i, l]) for l in linear}
        eta_sq = int(eta[i, i])
        deg = table.degrees[i]
        has_deg = any(table.degrees[int(t)] == deg for t in np.nonzero(a[i, i])[0])

        if fixture:
            checks.append(CheckResult("C", {"part": "i", "chi": i}, HYPOTHESIS,
                                      {"fixture": True, "inner_chi2_chi": self_mult}))
            checks.append(CheckResult("C", {"part": "ii", "chi": i}, HYPOTHESIS,
                                      {"fixture": True, "linear_multiplicities": lin_vals}))
            checks.append(CheckResult("C", {"part": "iii", "chi": i}, HYPOTHESIS,
                                      {"fixture": True, "eta_chi2": eta_sq,
                                       "has_degree_constituent": has_deg}))
            continue

        if i == 0:
            checks.append(CheckResult("C", {"part": "i", "chi": i}, HYPOTHESIS,
                                      {"reason": "chi is the principal character"}))
        elif self_mult == 0:
            checks.append(CheckResult("C", {"part": "i", "chi": i}, PASS))
        else:
            checks.append(CheckResult("C", {"part": "i", "chi": i}, FAIL,
                                      {"inner_chi2_chi": self_mult}))

        if p == 2 or deg == 1:
            checks.append(CheckResult("C", {"part": "ii", "chi": i}, HYPOTHESIS,
                                      {"reason": "requires odd p and chi(1) > 1"}))
        elif all(v == 0 for v in lin_vals.values()):
            checks.append(CheckResult("C", {"part": "ii", "chi": i}, PASS))
        else:
            checks.append(CheckResult("C", {"part": "ii", "chi": i}, FAIL,
                                      {"linear_multiplicities": lin_vals}))

        if p == 2 and eta_sq >= p:
            checks.append(CheckResult("C", {"part": "iii", "chi": i}, HYPOTHESIS,
                                      {"reason": "p = 2 and eta(chi^2) >= 2", "eta_chi2": eta_sq}))
            continue
        try:
            witness = monomial_witness_search(group, i, table=table, _eta_sq=eta_sq)
            if has_deg:
                checks.append(CheckResult("C", {"part": "iii", "chi": i}, PASS,
                                          witness.to_json()))
            else:
                checks.append(CheckResult("C", {"part": "iii", "chi": i}, FAIL,
                                          {"reason": "no constituent of degree chi(1)",
                                           "eta_chi2": eta_sq}))
        except SearchExhausted as exc:
            checks.append(CheckResult("C", {"part": "iii", "chi": i}, FAIL,
                                      {"reason": "monomial witness search exhausted",
                                       "trail": exc.trail}))
    return checks


def check_lemma_counting(group, group_id="group", session=None):
    """|Irr(G | phi)| is 1 or at least p, per normal subgroup and phi."""
    session = session or GroupSession(group, group_id)
    _require_p_group(session, "lemma")
    checks = []
    p = session.p
    for data in session.normal_data:
        counts = data["col_support"]
        for k in range(counts.shape[0]):
            count = int(counts[k])
            instance = {"normal": data["index"], "normal_order": data["member"].order, "phi": k}
            if count == 1 or count >= p:
                checks.append(CheckResult("lemma", instance, PASS, {"count": count}))
            else:
                checks.append(CheckResult("lemma", instance, FAIL, {"count": count}))
    return checks


def check_eta_bound(group, group_id="group", session=None):
    """eta(chi conj(chi)) >= 2n(p-1)+1 whenever chi(1) = p^n with n >= 1."""
    session = session or GroupSession(group, group_id)
    _require_p_group(session, "bound")
    checks = []
    p = session.p
    a = session.products
    eta = session.eta
    table = session.table
    for i, deg in enumerate(table.degrees):
        instance = {"chi": i}
        if deg == 1:
            checks.append(CheckResult("bound", instance, SKIPPED, {"reason": "chi is linear"}))
            continue
        n_exp = 0
        d = deg
        while d % p == 0:
            d //= p
            n_exp += 1
        if d != 1:
            checks.append(CheckResult("bound", instance, FAIL,
                                      {"reason": "degree is not a power of p", "degree": deg}))
            continue
        jbar = table.conjugate_index(i)
        value = int(eta[i, jbar])
        principal_mult = int(a[i, jbar, 0])
        required = 2 * n_exp * (p - 1) + 1
        witness = {"eta": value, "required": required, "principal_multiplicity": principal_mult}
        if principal_mult == 1 and value >= required:
            checks.append(CheckResult("bound", instance, PASS, witness))
        else:
            checks.append(CheckResult("bound", instance, FAIL, witness))
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


def _find_irreducible_index(table, f):
    idx = table.index_of(f)
    if idx is None:
        raise CharprodError("expected an irreducible of the table")
    return idx


def _verify_witness(table, chi_cf, h_ctx, alpha):
    """alpha^G = chi exactly and (alpha^2)^G irreducible; returns the index of
    the induced square or None when the branch is dead."""
    if induce(alpha, h_ctx) != chi_cf:
        return None
    square = induce(alpha * alpha, h_ctx)
    if inner_product(square, square, characters=True) != 1:
        return None
    return table.index_of(square)


def _descend(group, table, chi_cf, trail):
    """Return (h_ctx, alpha, chain) with alpha linear on h_ctx.group,
    alpha^group = chi_cf and (alpha^2)^group irreducible."""
    deg = chi_cf.degree().as_integer()
    if deg == 1:
        ctx = InducedContext.build(group, group.full_subgroup())
        return ctx, chi_cf, []

    kernel = kernel_of(chi_cf)
    if kernel.order > 1:
        qm = quotient(group, kernel)
        qtable = dixon_table(qm.quotient)
        reduced = None
        for tau in qtable.irreducibles:
            if qm.inflate(tau) == chi_cf:
                reduced = tau
                break
        if reduced is None:
            raise CharprodError("character does not descend to the quotient (engine bug)")
        sub_ctx, sub_alpha, sub_chain = _descend(qm.quotient, qtable, reduced, trail)
        h_quotient_elements = {sub_ctx.to_parent[i] for i in range(sub_ctx.group.order)}
        h_indices = qm.preimage_indices(h_quotient_elements)
        h_ctx = InducedContext.build(group, h_indices)
        classes = [
            sub_ctx.group.class_of[sub_ctx.from_parent[qm.projection[h_ctx.to_parent[cls.representative]]]]
            for cls in h_ctx.group.classes
        ]
        alpha = ClassFunction.from_coefficients(h_ctx.group, sub_alpha.order, sub_alpha.num[classes], sub_alpha.den)
        step = {"step": "quotient", "kernel_order": kernel.order,
                "quotient_order": qm.quotient.order}
        if _verify_witness(table, chi_cf, h_ctx, alpha) is None:
            raise SearchExhausted("pullback through the quotient failed verification", trail)
        return h_ctx, alpha, [step] + sub_chain

    z_sub = center_of(chi_cf)
    ctx_z = InducedContext.build(group, z_sub)
    zeta = restrict(chi_cf, ctx_z) * Fraction(1, deg)
    lattice = _group_lattice(group, table)
    for y_member in chief_factor_above(lattice, z_sub):
        ctx_y = InducedContext.build(group, y_member)
        z_in_y = InducedContext.build(
            ctx_y.group,
            [ctx_y.from_parent[p] for p in ctx_z.to_parent],
            subgroup_group=ctx_z.group,
        )
        chi_y = restrict(chi_cf, ctx_y)
        for iota_idx in ctx_y.table.linear_indices():
            iota = ctx_y.table.irreducibles[iota_idx]
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
                sub_ctx, alpha, sub_chain = _descend(
                    ctx_stab.group, ctx_stab.table, correspondent, trail
                )
            except SearchExhausted:
                continue
            h_indices = [ctx_stab.to_parent[sub_ctx.to_parent[i]]
                         for i in range(sub_ctx.group.order)]
            h_ctx = InducedContext.build(group, h_indices, subgroup_group=sub_ctx.group)
            if _verify_witness(table, chi_cf, h_ctx, alpha) is None:
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
            return h_ctx, alpha, [step] + sub_chain
    raise SearchExhausted("every descent branch died", trail)


def monomial_witness_search(group, chi, table=None, _eta_sq=None):
    """Monomial witness for chi: H <= G and linear alpha with alpha^G = chi and
    (alpha^2)^G irreducible, found by the Clifford descent with backtracking."""
    p = group.p_group_prime()
    if p is None:
        raise NotAPGroup("monomial witness search runs on p-groups")
    table = table or dixon_table(group)
    if isinstance(chi, int):
        if not 0 <= chi < table.size:
            raise CharprodError(f"character index {chi} outside [0, {table.size})")
        chi_index = chi
        chi_cf = table.irreducibles[chi_index]
    else:
        chi_cf = chi
        chi_index = _find_irreducible_index(table, chi_cf)
    if _eta_sq is None:
        _eta_sq = decompose(chi_cf * chi_cf, table).eta
    if p == 2 and _eta_sq >= 2:
        raise HypothesisNotMet(f"p = 2 and eta(chi^2) = {_eta_sq} >= 2")

    trail = []
    h_ctx, alpha, chain = _descend(group, table, chi_cf, trail)
    square_idx = _verify_witness(table, chi_cf, h_ctx, alpha)
    if square_idx is None:
        raise SearchExhausted("final witness failed verification", trail)
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
            report.checks.append(_not_p_group_record(statement))
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
