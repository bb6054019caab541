"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is exact; the only numeric budgets are wall-clock
limits stated alongside the criterion.
"""

import random
import time

import pytest

from charprod import catalog, verify
from charprod.charops import (
    InducedContext,
    decompose,
    induce,
    inner_product,
    principal_character,
    restrict,
)
from charprod.chartab import dixon_table, verify_orthogonality
from charprod.structure import normal_lattice, normals_of_index
from charprod.verify import monomial_witness_search, run_suite

from oracles import brute_force_table, canonical_key, class_sets, normal_lattice_oracle

ALL_IDS = None


def all_ids():
    global ALL_IDS
    if ALL_IDS is None:
        ALL_IDS = catalog.builtin_ids()
    return ALL_IDS


def p_group_ids():
    return [s.id for s in catalog.group_specs() if s.prime is not None]


def verdict(number, ok, message):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {message}"
    print(line)
    assert ok, line


def test_criterion_1_sl23_fixture():
    spec = catalog.spec_for("sl23")
    start = time.perf_counter()
    group = catalog.parse_group(spec.generators)
    table = dixon_table(group)
    degree3 = [i for i, d in enumerate(table.degrees) if d == 3]
    ok = len(degree3) == 1
    chi = table.irreducibles[degree3[0]]
    value = inner_product(chi * chi, chi, characters=True)
    elapsed = time.perf_counter() - start
    ok = ok and value == 2 and elapsed < 5.0
    verdict(1, ok, f"SL(2,3) has chi(1)=3 with [chi^2, chi] = {value} ({elapsed:.2f}s)")


def test_criterion_2_d8_fixture():
    spec = catalog.spec_for("dihedral8")
    start = time.perf_counter()
    group = catalog.parse_group(spec.generators)
    table = dixon_table(group)
    chi = next(c for c, d in zip(table.irreducibles, table.degrees) if d == 2)
    dec = decompose(chi * chi, table)
    linear = set(table.linear_indices())
    ok = (
        dec.eta == 4
        and {i for i, _ in dec.constituents} == linear
        and all(m == 1 for _, m in dec.constituents)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    verdict(2, ok, f"D8 degree-2 chi^2 = sum of all {len(linear)} linears, eta = {dec.eta} ({elapsed:.2f}s)")


def test_criterion_3_index_p_trivial_induction():
    checked = 0
    ok = True
    for gid in p_group_ids():
        group = catalog.builtin(gid)
        table = dixon_table(group)
        p = group.p_group_prime()
        lattice = normal_lattice(group, table)
        for member in normals_of_index(lattice, p):
            ctx = InducedContext.build(group, member)
            dec = decompose(induce(principal_character(ctx.group), ctx), table)
            checked += 1
            if dec.eta != p:
                ok = False
    verdict(3, ok and checked > 0, f"eta(1_N^G) = p on {checked} index-p normal subgroups")


def test_criterion_4_full_catalog_suite():
    start = time.perf_counter()
    report = run_suite(all_ids(), ("A", "B", "C", "lemma", "bound"))
    elapsed = time.perf_counter() - start
    fails = report.summary["fail"]
    ok = fails == 0 and elapsed < 300.0
    verdict(4, ok, f"catalog suites A,B,C,lemma,bound: {fails} failures in {elapsed:.1f}s "
                   f"({report.summary['pass']} passes)")


def test_criterion_5_eta_lower_bound():
    checked = 0
    ok = True
    for gid in p_group_ids():
        group = catalog.builtin(gid)
        table = dixon_table(group)
        p = group.p_group_prime()
        for i, degree in enumerate(table.degrees):
            if degree == 1:
                continue
            n_exp = 0
            d = degree
            while d % p == 0:
                d //= p
                n_exp += 1
            chi = table.irreducibles[i]
            dec = decompose(chi * chi.conj(), table)
            checked += 1
            if dec.eta < 2 * n_exp * (p - 1) + 1:
                ok = False
    verdict(5, ok and checked > 0, f"eta(chi conj(chi)) >= 2n(p-1)+1 on {checked} nonlinear characters")


def test_criterion_6_monomial_witnesses():
    checked = 0
    ok = True
    for gid in p_group_ids():
        group = catalog.builtin(gid)
        if group.order % 2 == 0:
            continue
        table = dixon_table(group)
        for i in range(len(table.irreducibles)):
            witness = monomial_witness_search(group, i, table=table)
            chi = table.irreducibles[i]
            sub = group.subgroup(_generator_indices(group, witness.subgroup_generators))
            ctx = InducedContext.build(group, sub)
            alpha = next(
                lam for lam in ctx.table.irreducibles
                if [v.to_json() for v in lam.values] == witness.alpha_values
            )
            induced = induce(alpha, ctx)
            square = induce(alpha * alpha, ctx)
            checked += 1
            if induced != chi or inner_product(square, square, characters=True) != 1:
                ok = False
    verdict(6, ok and checked > 0,
            f"monomial witnesses verified by explicit induction on {checked} irreducibles "
            f"of odd-order catalog groups")


def _generator_indices(group, cycle_texts):
    from charprod.perm import Permutation, parse_permutation

    out = []
    for text in cycle_texts:
        p = parse_permutation(text)
        if p.degree < group.degree:
            p = Permutation(tuple(p.images) + tuple(range(p.degree, group.degree)))
        out.append(group.element_index(p))
    return out


def test_criterion_7_table_properties_and_reciprocity():
    rng = random.Random(20240817)
    ok = True
    pairs_checked = 0
    for gid in all_ids():
        group = catalog.builtin(gid)
        table = dixon_table(group)
        if not verify_orthogonality(table):
            ok = False
        if sum(d * d for d in table.degrees) != group.order:
            ok = False
        contexts = []
        for _ in range(10):
            seed = [rng.randrange(group.order) for _ in range(rng.randint(1, 2))]
            contexts.append(InducedContext.build(group, group.subgroup(seed)))
        for _ in range(100):
            ctx = contexts[rng.randrange(len(contexts))]
            f = ctx.table.irreducibles[rng.randrange(len(ctx.table.irreducibles))]
            chi = table.irreducibles[rng.randrange(len(table.irreducibles))]
            if inner_product(induce(f, ctx), chi) != inner_product(f, restrict(chi, ctx)):
                ok = False
            pairs_checked += 1
    verdict(7, ok, f"orthogonality, degree sums and Frobenius reciprocity on {pairs_checked} "
                   f"randomized pairs across {len(all_ids())} groups")


def test_criterion_8_oracle_equivalence():
    lattice_groups = 0
    table_groups = 0
    ok = True
    for gid in all_ids():
        group = catalog.builtin(gid)
        if group.order <= 64:
            table = dixon_table(group)
            lattice = normal_lattice(group, table)
            if set(class_sets(lattice.masks)) != normal_lattice_oracle(group):
                ok = False
            lattice_groups += 1
        if group.order <= 24:
            table = dixon_table(group)
            oracle_rows = {canonical_key(row) for row in brute_force_table(group)}
            engine_rows = {canonical_key(tuple(chi.values)) for chi in table.irreducibles}
            if oracle_rows != engine_rows:
                ok = False
            table_groups += 1
    verdict(8, ok, f"normal lattices match the class-union oracle on {lattice_groups} groups "
                   f"(|G| <= 64); tables match the regular-character oracle on {table_groups} "
                   f"groups (|G| <= 24)")
