"""Run the verification suites over a few groups and read the reports.

Statements: A and B are the product theorems, C the square theorem with its
monomial witness, "lemma" the counting lemma for characters over a normal
subgroup, "bound" the constituent-count lower bound for chi * conj(chi).
A failure anywhere would be an engine bug, so the interesting columns are the
hypothesis-not-met entries: they mark exactly the counterexample territory.
"""

from charprod.verify import run_suite

report = run_suite(
    ["heisenberg3", "dihedral8", "quaternion8", "sl23"],
    ("A", "B", "C", "lemma", "bound"),
)
for group_report in report.reports:
    s = group_report.summary
    print(
        f"{group_report.group_id:12s} pass {s['pass']:4d}  fail {s['fail']}  "
        f"hypothesis-not-met {s['hypothesis_not_met']:3d}  skipped {s['skipped']:4d}"
    )
print()

# D8's degree-2 character squares to a sum of four linears: eta = 4 >= 2 puts
# the pair outside theorem A's hypothesis, and the report says so.
d8 = next(r for r in report.reports if r.group_id == "dihedral8")
square = next(
    c for c in d8.checks
    if c["statement"] == "A" and c["instance"] == {"chi": 4, "psi": 4}
)
print("D8 (chi_4, chi_4) under statement A:", square["status"], square["witness"])

# SL(2,3) is not a p-group; statement C runs in fixture mode and reports the
# raw value [chi^2, chi] = 2 for the degree-3 character.
sl = next(r for r in report.reports if r.group_id == "sl23")
fixture = next(
    c for c in sl.checks
    if c["statement"] == "C" and c["instance"] == {"part": "i", "chi": 6}
)
print("SL(2,3) degree-3 chi under statement C(i):", fixture["witness"])
