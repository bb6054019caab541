import json
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    center_sets_reference,
    class_sets,
    generator_sets,
    normal_closure_sets_reference,
    pair_records_reference,
    products_reference,
    theorem_A_reference,
    theorem_B_reference,
)

from charprod import catalog, verify
from charprod.charops import ClassFunction, InducedContext, decompose, induce, inner_product, kernel_of, restrict
from charprod.chartab import CharacterTable, dixon_table
from charprod.errors import CharprodError, HypothesisNotMet, NotAPGroup, SearchExhausted
from charprod.perm import group_closure, parse_generators
from charprod.verify import (
    GroupSession,
    check_eta_bound,
    check_lemma_counting,
    check_theorem_A,
    check_theorem_B,
    check_theorem_C,
    monomial_witness_search,
    run_suite,
)


def by_instance(checks):
    return {(c["statement"], tuple(sorted(c["instance"].items()))): c for c in checks}


def test_abelian_theorem_A_all_pass(group_of):
    checks = check_theorem_A(group_of("elemab_3_2"), "elemab_3_2")
    active = [c for c in checks if c["status"] not in ("skipped",)]
    assert active and all(c["status"] == "pass" for c in active)


def test_theorem_A_d8_square_hypothesis(group_of, table_of):
    checks = check_theorem_A(group_of("dihedral8"), "dihedral8")
    lookup = by_instance(checks)
    square = lookup[("A", (("chi", 4), ("psi", 4)))]
    assert square["status"] == "hypothesis-not-met"
    assert square["witness"] == {"eta": 4}


def test_theorem_A_skips_symmetric_duplicates(group_of):
    checks = check_theorem_A(group_of("dihedral8"), "dihedral8")
    lookup = by_instance(checks)
    skipped = lookup[("A", (("chi", 3), ("psi", 1)))]
    assert skipped["status"] == "skipped"
    assert skipped["witness"] == {"duplicate_of": [1, 3]}
    n = 5
    assert sum(1 for c in checks if c["status"] == "skipped") == n * (n - 1) // 2


def test_theorem_A_heisenberg_pass(group_of):
    checks = check_theorem_A(group_of("heisenberg3"), "heisenberg3")
    assert not [c for c in checks if c["status"] == "fail"]
    active = [c for c in checks if c["status"] == "pass"]
    assert len(active) == 65


def test_theorem_A_rejects_non_p_group(group_of):
    with pytest.raises(NotAPGroup):
        check_theorem_A(group_of("sl23"), "sl23")
    # the suite wrapper records the failed hypothesis instead of raising
    report = run_suite(["sl23"], ("A", "B", "lemma", "bound"))
    checks = report.reports[0].checks
    assert len(checks) == 4
    assert all(c["status"] == "hypothesis-not-met" for c in checks)


def test_theorem_B_passes(group_of):
    for gid in ("dihedral8", "heisenberg3", "modular16"):
        checks = check_theorem_B(group_of(gid), gid)
        assert not [c for c in checks if c["status"] == "fail"]


def test_theorem_B_contrast_fixture(group_of, table_of):
    # the product chi * conj(chi) has eta >= p, so the 1_N fixture with
    # eta(1_N^G) = p only ever occurs on pairs outside the hypothesis
    gid = "heisenberg3"
    g = group_of(gid)
    t = table_of(gid)
    session = GroupSession(g, gid)
    p = session.p
    from charprod.structure import normals_of_index

    for n_sub in normals_of_index(session.lattice, p):
        ctx = InducedContext.build(g, n_sub)
        up = induce(ctx.table.irreducibles[0], ctx)
        dec = decompose(up, t)
        assert dec.eta == p
        for i, chi in enumerate(t.irreducibles):
            if t.degrees[i] == 1:
                continue  # no alpha in Irr(N) induces to a multiple of a linear
            if inner_product(restrict(chi * chi.conj(), ctx), ctx.table.irreducibles[0]) != 0:
                # 1_N appears under chi * conj(chi); that pair must violate eta < p
                jbar = t.conjugate_index(i)
                assert session.eta[i, jbar] >= p


def test_theorem_A_reports_a_corrupted_center(group_of):
    # Z(chi_9) shrunk to the identity class: the squares of the two degree-3
    # characters (each 3 times the other) no longer match their constituent
    gid = "heisenberg3"
    g = group_of(gid)
    session = GroupSession(g, gid)
    _corrupt_class_sets(session, zsets=[(9, {0})])
    checks = check_theorem_A(g, gid, session=session)
    assert len(checks) == 121
    assert [c for c in checks if c["status"] == "fail"] == [
        {"statement": "A", "instance": {"chi": 9, "psi": 9}, "status": "fail",
         "witness": {"theta": 10, "reason": "Z(chi psi) != Z(theta)", "z_product_classes": [0],
                     "z_theta_classes": [0, 9, 10], "eta": 1}},
        {"statement": "A", "instance": {"chi": 10, "psi": 10}, "status": "fail",
         "witness": {"theta": 9, "reason": "Z(chi psi) != Z(theta)", "z_product_classes": [0, 9, 10],
                     "z_theta_classes": [0], "eta": 1}},
    ]


def _theorem_A_matches_the_reference(session):
    got = check_theorem_A(None, "stub", session=session)
    assert got == pair_records_reference("A", session, theorem_A_reference(session))
    return got


def _corrupt_class_sets(session, zsets=(), vsets=()):
    """Replace the given (index, class set) entries of Z(chi) and V(chi) in
    copies of the session's masks."""
    session._zmasks, session._vmasks = session.zmasks.copy(), session.vmasks.copy()
    for masks, entries in ((session._zmasks, zsets), (session._vmasks, vsets)):
        for index, classes in entries:
            masks[index] = False
            masks[index, sorted(classes)] = True


def test_theorem_A_matches_the_pair_loop_on_the_catalog(group_of):
    """The array pass gives the records of the loop over pairs on every
    catalog p-group, as built and with its last irreducible's Z shrunk to the
    identity class, then also its last V grown to all classes and its first
    nonlinear V shrunk to the identity class (every failure reason occurs)."""
    reasons = set()
    for gid in catalog.builtin_ids():
        g = group_of(gid)
        if g.p_group_prime() is None:
            continue
        session = GroupSession(g, gid)
        _theorem_A_matches_the_reference(session)
        _corrupt_class_sets(session, zsets=[(-1, {0})])
        _theorem_A_matches_the_reference(session)
        nonlinear = [i for i, d in enumerate(session.table.degrees) if d > 1][:1]
        _corrupt_class_sets(session, vsets=[(-1, range(g.num_classes))] + [(i, {0}) for i in nonlinear])
        records = _theorem_A_matches_the_reference(session)
        reasons |= {c["witness"]["reason"] for c in records if c["status"] == "fail"}
    assert reasons == {"V(chi psi) escapes V(chi) & V(psi)", "Z(chi psi) != Z(theta)",
                       "V(theta) escapes V(chi psi)"}


@settings(max_examples=40, deadline=None)
@given(gens=generator_sets(), data=st.data())
def test_theorem_A_matches_the_pair_loop_on_random_groups(gens, data):
    """Random subgroups of S_n, n <= 6: on a p-group the array pass gives the
    loop's records, as built and with one drawn Z(chi) and V(chi) replaced;
    any other group is refused."""
    g = group_closure(gens)
    if g.p_group_prime() is None:
        with pytest.raises(NotAPGroup):
            check_theorem_A(g, "random")
        return
    session = GroupSession(g, "random")
    _theorem_A_matches_the_reference(session)
    classes = st.sets(st.integers(0, g.num_classes - 1))
    chi = st.integers(0, session.table.size - 1)
    _corrupt_class_sets(session, zsets=[(data.draw(chi), data.draw(classes))],
                        vsets=[(data.draw(chi), data.draw(classes))])
    _theorem_A_matches_the_reference(session)


def _pair_rows(draw, n):
    """Drawn pair rows of n irreducibles, one per pair i <= j, with their
    n x n eta."""
    a = _zero_biased(draw, (n * (n + 1) // 2, n), 2)
    return a, (a > 0).sum(axis=1)[verify._pair_index(n)]


@st.composite
def statement_A_sessions(draw):
    """A stand-in session with what check_theorem_A reads: drawn pair rows,
    drawn masks of Z(chi), supp chi and V(chi), and drawn lattice member
    masks ending in all classes, in drawn order."""
    p = draw(st.sampled_from([2, 3, 5]))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a, eta = _pair_rows(draw, n)

    def masks(rows):
        return _zero_biased(draw, (rows, m), 1).astype(bool)

    members = np.vstack([masks(draw(st.integers(0, 6))), np.ones((1, m), dtype=bool)])
    return SimpleNamespace(p=p, products=a, eta=eta, zmasks=masks(n), supports=masks(n), vmasks=masks(n),
                           lattice=SimpleNamespace(masks=members))


@settings(max_examples=300, deadline=None)
@given(session=statement_A_sessions())
def test_theorem_A_matches_the_pair_loop_on_drawn_sessions(session):
    """On any class sets and lattice order the array pass takes the first
    containing member as V(chi psi), the first failing constituent and the Z
    test before the V test, as the loop over pairs does."""
    _theorem_A_matches_the_reference(session)


def test_theorem_B_reports_a_corrupted_induction_count(group_of):
    # the faithful phi of the center claimed to induce to two irreducibles:
    # every pair in the hypothesis whose product lies over it fails
    gid = "heisenberg3"
    g = group_of(gid)
    session = GroupSession(g, gid)
    session.normal_data[1]["col_support"][1] = 2
    checks = check_theorem_B(g, gid, session=session)
    assert len(checks) == 121
    witness = {"normal": 1, "normal_order": 3, "gamma": 1, "eta_gamma_induced": 2}
    pairs = [(i, 9) for i in range(9)] + [(10, 10)]
    assert [c for c in checks if c["status"] == "fail"] == [
        {"statement": "B", "instance": {"chi": i, "psi": j}, "status": "fail", "witness": witness}
        for i, j in pairs
    ]


def _zero_biased(draw, shape, top):
    """An int64 array of ``shape`` with entries in [0, top], half of them 0."""
    size = int(np.prod(shape))
    values = draw(st.lists(st.integers(-top, top), min_size=size, max_size=size))
    return np.maximum(np.array(values, dtype=np.int64), 0).reshape(shape)


@st.composite
def statement_B_sessions(draw):
    """A stand-in session with what check_theorem_B reads: drawn pair rows,
    and per normal subgroup a drawn restriction matrix R with
    col_support, single_mult, inducer_exists and the index drawn apart from
    it.  col_support reads 1 only on a column with at most one positive
    entry, as in every session, where it is R's column support."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6))
    a, eta = _pair_rows(draw, n)
    normals = []
    for idx in range(draw(st.integers(1, 4))):
        m = draw(st.integers(1, 5))
        r = _zero_biased(draw, (n, m), 2)
        support = (r > 0).sum(axis=0)
        col_support = np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
        col_support = np.where((col_support == 1) & (support > 1), support, col_support)
        normals.append({
            "index": idx,
            "member": SimpleNamespace(order=3 * idx + 1),
            "R": r,
            "col_support": col_support,
            "single_mult": np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))),
            "inducer_exists": np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
            "normal_index": draw(st.sampled_from([p, p * p])),
        })
    return SimpleNamespace(p=p, products=a, eta=eta,
                           table=SimpleNamespace(irreducibles=[None] * n), normal_data=normals)


@settings(max_examples=200, deadline=None)
@given(session=statement_B_sessions())
def test_theorem_B_matches_the_per_normal_reference(session):
    """The one-product decision gives the records of the loop over normal
    subgroups with both of its verdict branches, failures included."""
    expected = pair_records_reference("B", session, theorem_B_reference(session))
    assert check_theorem_B(None, "stub", session=session) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), m=st.integers(1, 6), pairs=st.integers(1, 8))
def test_the_outside_branch_adds_no_pair(data, n, m, pairs):
    """A pair k lies under gamma and gamma^G has a constituent outside its
    product only when gamma's column support exceeds under[k, gamma] >= 1, so
    gamma is bad and the pair already failed: on any 0/1 restriction pattern
    and product masks the branch that reports it adds no pair."""
    def mask(shape):
        return _zero_biased(data.draw, shape, 1).astype(bool)

    over, occurs, relevant = mask((n, m)), mask((pairs, n)), mask((pairs,))
    under = occurs.astype(np.int64) @ over
    col_support = over.sum(axis=0)
    failed = (under[:, col_support != 1] > 0).any(axis=1) & relevant
    outside = ((under > 0) & (col_support - under > 0)).any(axis=1) & relevant
    assert not (outside & ~failed).any()


@settings(max_examples=200, deadline=None)
@given(statement=st.sampled_from(["A", "B"]), data=st.data())
def test_pair_records_match_the_per_pair_loop(statement, data):
    """On a drawn stand-in session of either statement and drawn failing
    pairs in its hypothesis, the records are the per-pair loop's, with the
    same JSON bytes (so no numpy integer leaks into a record), and the
    report counts and lists them as the loop's records."""
    session = data.draw(statement_A_sessions() if statement == "A" else statement_B_sessions())
    n = len(session.eta)
    pairs = [(i, j) for i in range(n) for j in range(i, n) if session.eta[i, j] < session.p]
    failing = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    verdicts = {pair: {"reason": "drawn", "eta": int(session.eta[pair])} for pair in failing}
    got = verify._pair_checks(statement, session, verdicts)
    expected = pair_records_reference(statement, session, verdicts)
    assert json.dumps(got) == json.dumps(expected)
    report = verify.GroupReport("stub", 1, session.p, got)
    counts = Counter(r["status"] for r in expected)
    assert counts["fail"] == len(failing)
    assert report.summary == {"pass": counts["pass"], "fail": counts["fail"],
                              "hypothesis_not_met": counts["hypothesis-not-met"], "skipped": counts["skipped"]}
    assert report.failures == [r for r in expected if r["status"] == "fail"]
    assert report.to_json()["checks"] == expected


def _session_matches_the_references(session):
    """The pair rows and eta of the ordered-pair formula, Z(chi) by exact
    norms, and V(chi) as the first lattice member holding supp chi."""
    a, eta = products_reference(session)
    assert np.array_equal(session.products, a[np.triu_indices(len(a))]) and np.array_equal(session.eta, eta)
    assert session.products.dtype == session.eta.dtype == np.int64
    assert class_sets(session.zmasks) == center_sets_reference(*session.table.coefficient_tensor())
    members = class_sets(session.lattice.masks)
    assert class_sets(session.vmasks) == normal_closure_sets_reference(session.table, members)


def test_products_and_centers_match_the_references_on_the_catalog(group_of):
    for gid in catalog.builtin_ids():
        _session_matches_the_references(GroupSession(group_of(gid), gid))


@settings(max_examples=40, deadline=None)
@given(gens=generator_sets())
def test_products_and_centers_match_the_references_on_random_groups(gens):
    _session_matches_the_references(GroupSession(group_closure(gens), "random"))


@st.composite
def product_sessions(draw):
    """A stand-in session with what ``GroupSession.products`` reads: a drawn
    modular image (values and degrees below a small prime q), class sizes,
    an inverse-class map, a group order prime to q, a bound and a
    conjugation map.  Most draws fail a check, so each check's refusal is
    exercised, on single irreducibles and on pairs."""
    q = draw(st.sampled_from([5, 7, 11]))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    below_q = st.integers(0, q - 1)

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(below_q, min_size=size, max_size=size)), dtype=np.int64).reshape(shape)

    conj = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    inverse = np.array(draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)), dtype=np.intp)
    return SimpleNamespace(
        q=q, bound=draw(st.one_of(st.just(q), st.integers(0, q))), _products=None, _eta=None,
        values=array(n, m), degrees=array(n),
        group=SimpleNamespace(class_sizes=array(m), order=draw(st.integers(1, q - 1)), inverse_class=lambda: inverse),
        table=SimpleNamespace(conjugate_index=conj.__getitem__),
    )


@settings(max_examples=400, deadline=None)
@given(session=product_sessions())
def test_products_decide_as_the_ordered_pair_formula(session):
    """Any modular table gives the formula's rows of the pairs chi <= psi
    and its eta, or the same refusal: the checks on the rows chi <= psi
    refuse what the checks on every ordered pair refuse."""
    try:
        expected = products_reference(session)
    except CharprodError as exc:
        with pytest.raises(CharprodError, match=re.escape(str(exc))):
            GroupSession.products.fget(session)
        return
    a, eta = expected
    assert np.array_equal(GroupSession.products.fget(session), a[np.triu_indices(len(a))])
    assert np.array_equal(session._eta, eta)


@pytest.mark.parametrize("n", range(9))
def test_the_pair_index_is_the_position_in_triu_indices(n):
    """(i, j) and (j, i) both name the row of (min, max), the order in which
    ``products`` forms the pairs."""
    position = {pair: k for k, pair in enumerate(zip(*(x.tolist() for x in np.triu_indices(n))))}
    index = verify._pair_index(n)
    assert index.shape == (n, n)
    for i in range(n):
        for j in range(n):
            assert index[i, j] == index[j, i] == position[min(i, j), max(i, j)]



def test_theorem_C_counterexample_fixtures(group_of):
    sl_checks = check_theorem_C(group_of("sl23"), "sl23")
    lookup = by_instance(sl_checks)
    part_i = lookup[("C", (("chi", 6), ("part", "i")))]
    assert part_i["status"] == "hypothesis-not-met"
    assert part_i["witness"]["fixture"] and part_i["witness"]["inner_chi2_chi"] == 2

    d8_checks = check_theorem_C(group_of("dihedral8"), "dihedral8")
    lookup = by_instance(d8_checks)
    part_ii = lookup[("C", (("chi", 4), ("part", "ii")))]
    part_iii = lookup[("C", (("chi", 4), ("part", "iii")))]
    assert part_ii["status"] == "hypothesis-not-met"
    assert part_iii["status"] == "hypothesis-not-met"
    assert part_iii["witness"]["eta_chi2"] == 4


def test_theorem_C_abelian(group_of):
    checks = check_theorem_C(group_of("elemab_2_2"), "elemab_2_2")
    part_i = [c for c in checks if c["instance"]["part"] == "i"]
    assert all(c["status"] == "pass" for c in part_i if c["instance"]["chi"] != 0)


def test_lemma_counting(group_of, table_of):
    gid = "dihedral8"
    checks = check_lemma_counting(group_of(gid), gid)
    assert all(c["status"] == "pass" for c in checks)
    g = group_of(gid)
    t = table_of(gid)
    session = GroupSession(g, gid)
    center = next(d for d in session.normal_data if d["member"].order == 2 and d["member"].is_normal
                  and len({g.class_of[i] for i in d["member"].element_indices}) == 2)
    counts = sorted(int(c) for c in center["col_support"])
    assert counts == [1, 4]  # faithful phi under one chi, trivial under four


def test_eta_bound(group_of):
    for gid, expected in (("heisenberg3", {(3, 9)}), ("dihedral8", {(2, 4)})):
        checks = check_eta_bound(group_of(gid), gid)
        assert all(c["status"] in ("pass", "skipped") for c in checks)
        seen = {
            (group_of(gid).p_group_prime() ** 1, c["witness"]["eta"])
            for c in checks if c["status"] == "pass"
        }
        assert seen == expected
        skipped = [c for c in checks if c["status"] == "skipped"]
        assert all(c["witness"] == {"reason": "chi is linear"} for c in skipped)


def test_statement_C_makes_each_quotient_once_per_session(group_of, monkeypatch):
    """The witness searches of one session share their quotient maps: on
    heisenberg3 x C9, five distinct (group, kernel) quotients and no repeat."""
    calls = []
    made = verify.quotient
    monkeypatch.setattr(verify, "quotient", lambda g, n: calls.append((g, n.element_set)) or made(g, n))
    g = group_of("heisenberg3_x_cyclic9")
    session = GroupSession(g, "heisenberg3_x_cyclic9")
    check_theorem_C(g, "heisenberg3_x_cyclic9", session=session)
    assert len(calls) == len(set(calls)) == len(session._quotients) == 5


def test_witness_linear(group_of, table_of):
    g = group_of("cyclic9")
    w = monomial_witness_search(g, 3)
    assert w.subgroup_order == g.order and w.chain == []


def _square_by_product(table, chi):
    """Row of chi^2 by the exact product of row chi's class function."""
    order, tensor = table.coefficient_tensor()
    row = ClassFunction.from_coefficients(table.group, order, tensor[chi])
    return table.index_of(row * row)


def _linear_witnesses(g, table):
    """{chi: square_induced_index, or None when the search fails} over the
    linear chi of a table, each witness being (G, chi)."""
    out = {}
    for i in table.linear_indices():
        try:
            w = monomial_witness_search(g, i, table=table)
        except SearchExhausted as exc:
            assert "a linear character failed verification" in str(exc)
            out[i] = None
            continue
        assert (w.subgroup_index, w.chain) == (1, [])
        out[i] = w.square_induced_index
    return out


def test_every_catalog_linear_witness_keeps_its_square_index(group_of, table_of):
    """A linear chi is its own witness on G, with the row of its square as
    the exact product chi * chi finds it, on every catalog p-group."""
    for gid in catalog.builtin_ids():
        g = group_of(gid)
        if g.p_group_prime() is not None:
            t = table_of(gid)
            expected = {i: _square_by_product(t, i) for i in t.linear_indices()}
            assert None not in expected.values() and _linear_witnesses(g, t) == expected


@pytest.mark.parametrize("gid", ["cyclic9", "heisenberg3", "wreath3"])
def test_a_linear_witness_keeps_its_square_index(gid, group_of, table_of):
    """A linear chi is its own witness on G, with the row of its square; on
    a table where the square of one linear chi is not a row, that search
    ends as a failed check would, and the other linear chi keep their
    witnesses (odd p: squaring permutes the linear characters)."""
    g, t = group_of(gid), table_of(gid)
    assert _linear_witnesses(g, t) == {i: _square_by_product(t, i) for i in t.linear_indices()}
    order, tensor = t.coefficient_tensor()
    chi_index = t.linear_indices()[1]
    square = _square_by_product(t, chi_index)
    short = CharacterTable(g, order, np.delete(tensor, square, axis=0))
    got = _linear_witnesses(g, short)
    assert got == {i: _square_by_product(short, i) for i in short.linear_indices()}
    assert [i for i, s in got.items() if s is None] == [chi_index - (square < chi_index)]


@pytest.mark.parametrize("factor", [-1, 2])
def test_a_linear_row_off_the_roots_of_unity_is_squared_exactly(factor, group_of, table_of):
    """A linear row's values off the identity times -1 (no cube roots of
    unity, with the same squares) or 2: the searches decide as the exact
    products do."""
    g, t = group_of("heisenberg3"), table_of("heisenberg3")
    order, tensor = t.coefficient_tensor()
    chi_index = t.linear_indices()[1]
    changed = tensor.copy()
    changed[chi_index, 1:] *= factor
    table = CharacterTable(g, order, changed)
    got = _linear_witnesses(g, table)
    assert got == {i: _square_by_product(table, i) for i in table.linear_indices()}
    assert (got[chi_index] == _square_by_product(t, chi_index)) == (factor == -1)


def test_a_descent_checks_no_linear_base(group_of, table_of, monkeypatch):
    """Below the top, a chain ends on a linear character of a subgroup, which
    is not checked again: heisenberg3's degree-3 witnesses take one check
    each, at the top."""
    g, t = group_of("heisenberg3"), table_of("heisenberg3")
    real, calls = verify._verify_witness, []

    def counted(*args):
        calls.append(args[2].group.order)
        return real(*args)

    monkeypatch.setattr(verify, "_verify_witness", counted)
    for i in [i for i, d in enumerate(t.degrees) if d == 3]:
        calls.clear()
        monomial_witness_search(g, i, table=t)
        assert calls == [9]


def test_witness_heisenberg3(group_of, table_of):
    g = group_of("heisenberg3")
    t = table_of("heisenberg3")
    nonlinear = [i for i, d in enumerate(t.degrees) if d == 3]
    for i in nonlinear:
        w = monomial_witness_search(g, i)
        assert w.subgroup_index == 3 and w.subgroup_order == 9
        # verify by explicit induction from the returned data
        sub = g.subgroup([g.element_index(p) for p in
                          map(lambda s: _parse_one(s, g.degree), w.subgroup_generators)])
        ctx = InducedContext.build(g, sub)
        alpha = next(
            lam for lam in ctx.table.irreducibles
            if [v.to_json() for v in lam.values] == w.alpha_values
        )
        assert induce(alpha, ctx) == t.irreducibles[i]
        square = induce(alpha * alpha, ctx)
        assert inner_product(square, square, characters=True) == 1


def _parse_one(text, degree):
    from charprod.perm import parse_permutation

    p = parse_permutation(text)
    if p.degree < degree:
        from charprod.perm import Permutation

        return Permutation(tuple(p.images) + tuple(range(p.degree, degree)))
    return p


def test_witness_quaternion8_hypothesis(group_of):
    g = group_of("quaternion8")
    t = dixon_table(g)
    chi2 = next(i for i, d in enumerate(t.degrees) if d == 2)
    with pytest.raises(HypothesisNotMet):
        monomial_witness_search(g, chi2)


def test_only_a_search_at_p_2_decomposes_the_square(group_of, monkeypatch):
    """eta(chi^2) decides only the p = 2 hypothesis: an odd-p search never
    decomposes chi^2, and at p = 2 eta(chi^2) >= 2 still refuses the search."""
    def refuse(*args):
        raise AssertionError("decompose called")

    g = group_of("heisenberg3")
    t = dixon_table(g)
    with monkeypatch.context() as patch:
        patch.setattr(verify, "decompose", refuse)
        for i in [i for i, d in enumerate(t.degrees) if d == 3]:
            assert monomial_witness_search(g, i, table=t).subgroup_order == 9
            assert monomial_witness_search(g, t.irreducibles[i], table=t).chi_index == i
    g = group_of("quaternion8")
    t = dixon_table(g)
    chi2 = t.degrees.index(2)
    assert decompose(t.irreducibles[chi2] * t.irreducibles[chi2], t).eta >= 2
    with pytest.raises(HypothesisNotMet, match="eta"):
        monomial_witness_search(g, t.irreducibles[chi2], table=t)


def test_statement_C_records_the_p_2_hypothesis_without_a_search(group_of, monkeypatch):
    """quaternion8's degree-2 chi has eta(chi^2) >= 2 at p = 2: the public
    search refuses it, and statement C records it as hypothesis-not-met
    without calling the search body for it (it does for the linear chi)."""
    g = group_of("quaternion8")
    t = dixon_table(g)
    chi2 = t.degrees.index(2)
    with pytest.raises(HypothesisNotMet, match="eta"):
        monomial_witness_search(g, chi2, table=t)
    searched = []
    body = verify._witness

    def recording(group, table, i, *rest):
        searched.append(i)
        return body(group, table, i, *rest)

    monkeypatch.setattr(verify, "_witness", recording)
    checks = check_theorem_C(g, "quaternion8")
    (record,) = [c for c in checks if c["instance"] == {"part": "iii", "chi": chi2}]
    assert record["status"] == "hypothesis-not-met" and record["witness"]["eta_chi2"] >= 2
    assert chi2 not in searched and searched == [i for i, d in enumerate(t.degrees) if d == 1]


def test_every_center_the_descent_takes_matches_the_norm_rule(group_of, monkeypatch):
    """Statement C on every catalog p-group: each character whose Z(chi) the
    witness descent takes gets the classes where |chi(g)|^2 = chi(1)^2 by
    exact norms.  On the catalog those are characters of G and of its
    quotients; no stabilizer's correspondent reaches a Z step."""
    taken = []
    made = verify.center_of

    def recording(f):
        taken.append((f, made(f)))
        return taken[-1][1]

    monkeypatch.setattr(verify, "center_of", recording)
    groups = []
    for gid in catalog.builtin_ids():
        g = group_of(gid)
        if g.p_group_prime() is not None:
            groups.append(g)
            check_theorem_C(g, gid)
    for f, z in taken:
        (classes,) = center_sets_reference(f.order, f.num[None])
        assert z.element_set == frozenset(f.group.class_members(sorted(classes)).tolist())
    on_g = [any(f.group is g for g in groups) for f, _ in taken]
    assert any(on_g) and not all(on_g)


def test_witness_rejects_a_class_function_off_the_table(group_of):
    g = group_of("heisenberg3")
    t = dixon_table(g)
    chi = t.irreducibles[t.degrees.index(3)]
    with pytest.raises(CharprodError, match="expected an irreducible of the table"):
        monomial_witness_search(g, chi + chi, table=t)


def test_witness_rejects_non_p_group(group_of):
    with pytest.raises(NotAPGroup):
        monomial_witness_search(group_of("sl23"), 0)


def test_witness_degree_bookkeeping(group_of, table_of):
    g = group_of("wreath3")
    t = table_of("wreath3")
    for i, d in enumerate(t.degrees):
        w = monomial_witness_search(g, i)
        assert w.subgroup_index == d  # alpha linear: chi(1) = |G:H|
        assert t.degrees[w.square_induced_index] == d
        for step in w.chain:
            if step["step"] == "clifford":
                # the correspondent degree times the stabilizer index recovers
                # the degree at that level of the descent
                index = step["level_order"] // step["stabilizer_order"]
                assert step["correspondent_degree"] * index == step["degree"]


def test_witness_multi_level_descent(product_2187):
    # a degree-9 character forces two rounds of the Clifford descent
    g, t = product_2187
    target = next(i for i, d in enumerate(t.degrees) if d == 9)
    w = monomial_witness_search(g, target, table=t)
    assert w.subgroup_index == 9
    clifford_steps = [s for s in w.chain if s["step"] == "clifford"]
    assert len(clifford_steps) >= 2
    for step in clifford_steps:
        index = step["level_order"] // step["stabilizer_order"]
        assert step["correspondent_degree"] * index == step["degree"]


def test_witness_through_quotient(group_of, table_of):
    # a nonfaithful nonlinear character forces the kernel-quotient step
    g = group_of("heisenberg3_x_cyclic9")
    t = table_of("heisenberg3_x_cyclic9")
    from charprod.charops import kernel_of

    target = next(
        i for i, d in enumerate(t.degrees)
        if d == 3 and kernel_of(t.irreducibles[i]).order > 1
    )
    w = monomial_witness_search(g, target)
    assert any(step["step"] == "quotient" for step in w.chain)
    assert w.subgroup_index == 3


def test_quotient_step_reads_the_parent_table(group_of, monkeypatch):
    """The quotient step of the descent takes G/ker(chi)'s table from the
    rows of G's table and builds no table for the quotient."""
    from charprod import chartab

    g = group_closure(group_of("heisenberg3_x_cyclic9").generators)
    t = dixon_table(g)
    built, derived = [], []
    real_build, real_derive = chartab._build_table, verify.quotient_table

    def build(group):
        built.append(group)
        return real_build(group)

    def derive(table, qm):
        derived.append(real_derive(table, qm))
        return derived[-1]

    monkeypatch.setattr(chartab, "_build_table", build)
    monkeypatch.setattr(verify, "quotient_table", derive)
    for i, d in enumerate(t.degrees):
        if d > 1 and kernel_of(t.irreducibles[i]).order > 1:
            assert any(step["step"] == "quotient" for step in monomial_witness_search(g, i, table=t).chain)
    assert derived and not {id(table.group) for table in derived} & {id(group) for group in built}


def test_run_suite_empty_statements(group_of):
    report = run_suite(["dihedral8"], ())
    assert report.reports[0].checks == []
    assert report.all_pass


def test_run_suite_master_regression():
    ids = ["cyclic4", "dihedral8", "quaternion8", "heisenberg3", "sl23"]
    report = run_suite(ids, ("A", "B", "C", "lemma", "bound"))
    assert report.all_pass
    assert [r.group_id for r in report.reports] == sorted(ids)


def test_suite_deterministic_under_generator_permutation():
    one = group_closure(parse_generators("(1 2 3 4)\n(1 3)")[0])
    two = group_closure(parse_generators("(1 3)\n(1 2 3 4)")[0])
    ra = run_suite([("d8", one)], ("A", "B", "C", "lemma", "bound"))
    rb = run_suite([("d8", two)], ("A", "B", "C", "lemma", "bound"))
    multiset_a = sorted((c["statement"], c["status"]) for c in ra.reports[0].checks)
    multiset_b = sorted((c["statement"], c["status"]) for c in rb.reports[0].checks)
    assert multiset_a == multiset_b


def test_report_json_schema(group_of):
    report = run_suite(["dihedral8"], ("A", "bound"))
    payload = report.to_json()
    assert set(payload) == {"groups", "summary"}
    entry = payload["groups"][0]
    assert entry["group"] == {"id": "dihedral8", "order": 8, "p": 2}
    assert set(entry["summary"]) == {"pass", "fail", "hypothesis_not_met", "skipped"}
    for check in entry["checks"]:
        assert set(check) <= {"statement", "instance", "status", "witness"}
        assert check["status"] in ("pass", "fail", "hypothesis-not-met", "skipped")
    json.dumps(payload)  # must be serializable
