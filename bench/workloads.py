"""The benchmark's workloads: seeded inputs, set-up, ops and exact checks.

Every input group is given by generator text.  The seed relabels its points
by a random permutation sigma, so the program sees conjugated generators.
Conjugation preserves the breadth-first element order, the class order and
the table rows, so each output equals the reference once every cycle text in
it is mapped back through sigma^-1.  The comparison is byte for byte against
references captured from the program with the identity relabelling (see
capture.py).
"""

from __future__ import annotations

import gzip
import json
import random
import re
import zlib
from pathlib import Path

from charprod import catalog, charops, chartab, perm, verify

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
STATEMENTS = ("A", "B", "C", "lemma", "bound")

CYCLE = re.compile(r"\(([\d ]+)\)")
QUOTED_CYCLES = re.compile(r'"((?:\(\d+(?: \d+)+\))+)"')


def render(payload):
    """JSON text exactly as ``charprod ... --format json`` writes it."""
    return json.dumps(payload, indent=2, sort_keys=True)


# -- relabelling --------------------------------------------------------------


def relabel(text, rng):
    """Return (text with points relabelled by a random sigma, sigma^-1).

    ``rng=None`` keeps the labels (the reference inputs)."""
    points = max((int(p) for cycle in CYCLE.findall(text) for p in cycle.split()), default=1)
    image = list(range(1, points + 1))
    if rng is not None:
        rng.shuffle(image)
    sigma = dict(zip(range(1, points + 1), image))
    out = CYCLE.sub(lambda m: "(" + " ".join(str(sigma[int(p)]) for p in m.group(1).split()) + ")", text)
    return out, {v: k for k, v in sigma.items()}


def canonical_cycles(text, mapping):
    """Cycle text of the permutation ``text`` with points renamed by
    ``mapping``, in charprod's canonical form: each cycle starts at its least
    point, cycles ordered by that point."""
    image = {}
    for cycle in CYCLE.findall(text):
        pts = [mapping.get(int(p), int(p)) for p in cycle.split()]
        image.update(zip(pts, pts[1:] + pts[:1]))
    out, seen = [], set()
    for start in sorted(image):
        if start in seen:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = image[x]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) or "()"


def unrelabel(text, inverse):
    """Map every quoted cycle text in a JSON output back through sigma^-1."""
    return QUOTED_CYCLES.sub(lambda m: '"' + canonical_cycles(m.group(1), inverse) + '"', text)


# -- references ---------------------------------------------------------------


def reference_path(key):
    return REFERENCE_DIR / f"{key}.json.gz"


def matches_reference(key, text, inverse):
    """True iff every cycle text in the output is in canonical form and the
    output, mapped back, equals the stored reference bytes.  A missing or
    damaged reference file is a mismatch."""
    if any(canonical_cycles(c, {}) != c for c in QUOTED_CYCLES.findall(text)):
        return False
    try:
        expected = gzip.decompress(reference_path(key).read_bytes())
    except (OSError, EOFError, zlib.error):
        return False
    return unrelabel(text, inverse).encode() == expected


def spec_generators(group_id):
    return catalog.spec_for(group_id).generators


def product_generators():
    """Generator text of wreath3 x heisenberg3 (order 2187), as
    perm.direct_product builds it.  Closes the product once; call it outside
    any measured section."""
    product = perm.direct_product(catalog.builtin("wreath3"), catalog.builtin("heisenberg3"))
    return "".join(g.to_text() + "\n" for g in product.generators)


# -- workloads ----------------------------------------------------------------


class CatalogVerify:
    """Every catalog group under all five statements; one op is one group's
    suite, producing that group's entry of the ``verify --catalog`` report.
    Each pass closes fresh groups, so every memo starts cold."""

    name = "catalog_verify"
    roadmap = "W1"

    def __init__(self, seed):
        rng = None if seed is None else random.Random(seed)
        self.inputs = []
        for group_id in sorted(catalog.builtin_ids()):
            text, inverse = relabel(spec_generators(group_id), rng)
            self.inputs.append((group_id, text, inverse))
        self.inverse = {f"{self.name}/{gid}": inv for gid, _, inv in self.inputs}

    def setup(self):
        return [(gid, catalog.parse_group(text)) for gid, text, _ in self.inputs]

    def ops(self, groups, pass_index):
        return [(f"{self.name}/{gid}", _suite_op(gid, group)) for gid, group in groups]

    def check(self, groups, key, text):
        return matches_reference(key, text, self.inverse[key])


def _suite_op(group_id, group):
    def op():
        report = verify.run_suite([(group_id, group)], STATEMENTS)
        return render(report.reports[0].to_json())

    return op


class Table2187:
    """dixon_table of wreath3 x heisenberg3 plus its JSON render; one op is
    one table.  The closure is set-up, fresh for every pass."""

    name = "table_2187"
    roadmap = "W2"

    def __init__(self, seed):
        rng = None if seed is None else random.Random(seed)
        self.text, self.inverse = relabel(product_generators(), rng)

    def setup(self):
        return catalog.parse_group(self.text)

    def ops(self, group, pass_index):
        return [(self.name, lambda: render(chartab.dixon_table(group).to_json()))]

    def check(self, group, key, text):
        return matches_reference(key, text, self.inverse)


# Rows of the 16 degree-9 irreducibles of the order-2187 group, by the order
# of their kernel.  The two kinds descend differently (quotient by 3 to a
# group of order 729, or by 9 to one of order 243) and differ about fivefold
# in cost; within a kind the descents have the same shape.
KERNEL3_ROWS = (171, 172, 173, 174, 175, 176, 181, 182, 183, 184, 185, 186)
KERNEL9_ROWS = (177, 178, 179, 180)


class Witness2187:
    """monomial_witness_search for degree-9 irreducibles of the order-2187
    group.  Set-up is the closure and the parent table, fresh for every pass.
    A pass searches one kernel-3 character cold, then one kernel-9 character
    that reuses the lattice and context memos the first search filled.  The
    seed picks both characters, in a seed-shuffled order across passes."""

    name = "witness_2187"
    roadmap = "W3"

    def __init__(self, seed):
        rng = None if seed is None else random.Random(seed)
        self.text, self.inverse = relabel(product_generators(), rng)
        self.kernel3 = list(KERNEL3_ROWS)
        self.kernel9 = list(KERNEL9_ROWS)
        if rng is not None:
            rng.shuffle(self.kernel3)
            rng.shuffle(self.kernel9)

    def setup(self):
        group = catalog.parse_group(self.text)
        return group, chartab.dixon_table(group)

    def rows(self, pass_index):
        return (self.kernel3[pass_index % len(self.kernel3)], self.kernel9[pass_index % len(self.kernel9)])

    def ops(self, state, pass_index):
        group, table = state
        return [(f"{self.name}/chi{row}", _witness_op(group, table, row)) for row in self.rows(pass_index)]

    def check(self, state, key, text):
        """Byte-exact against the reference, then the witness is re-verified
        by explicit induction: alpha^G = chi and (alpha^2)^G irreducible."""
        if not matches_reference(key, text, self.inverse):
            return False
        group, table = state
        witness = json.loads(text)
        gens = [group.element_index(perm.parse_permutation(t, group.degree)) for t in witness["subgroup_generators"]]
        sub = group.subgroup(gens)
        ctx = charops.InducedContext.build(group, sub)
        alphas = [lam for lam in ctx.table.irreducibles if lam.to_json() == witness["alpha_values"]]
        if sub.order != witness["subgroup_order"] or len(alphas) != 1:
            return False
        alpha = alphas[0]
        square = charops.induce(alpha * alpha, ctx)
        return (
            alpha.values[0] == 1
            and charops.induce(alpha, ctx) == table.irreducibles[witness["chi"]]
            and charops.inner_product(square, square, characters=True) == 1
            and table.index_of(square) == witness["square_induced_index"]
        )


def _witness_op(group, table, row):
    return lambda: render(verify.monomial_witness_search(group, row, table=table).to_json())


WORKLOADS = {w.name: w for w in (CatalogVerify, Table2187, Witness2187)}
