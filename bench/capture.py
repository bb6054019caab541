"""Capture the benchmark's reference outputs from the current program.

    python3 bench/capture.py

Runs every op once with the identity relabelling and writes its output to
bench/reference/<op key>.json.gz.  Run it only when the program's output is
meant to change; the benchmark fails every op whose output differs from these
files.  Takes about ten minutes on a 2-core machine, mostly the 16 witnesses.
"""

from __future__ import annotations

import gzip
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from charprod import catalog, charops, verify  # noqa: E402


def write(key, text):
    path = workloads.reference_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(gzip.compress(text.encode(), mtime=0))
    print(f"wrote {path}", flush=True)


def capture_catalog():
    wl = workloads.CatalogVerify(None)
    groups = wl.setup()
    texts = {key: op() for key, op in wl.ops(groups, 0)}
    # The per-group entries must be those of `charprod verify --catalog`.
    full = verify.run_suite(catalog.builtin_ids(), workloads.STATEMENTS).to_json()
    for entry in full["groups"]:
        key = f"{wl.name}/{entry['group']['id']}"
        if workloads.render(entry) != texts[key]:
            raise SystemExit(f"{key}: entry differs from the catalog report")
    for key, text in texts.items():
        write(key, text)


def capture_table():
    wl = workloads.Table2187(None)
    group = wl.setup()
    (key, op), = wl.ops(group, 0)
    write(key, op())


def capture_witness():
    wl = workloads.Witness2187(None)
    group, table = wl.setup()
    rows = [i for i, d in enumerate(table.degrees) if d == 9]
    kernels = {i: charops.kernel_of(table.irreducibles[i]).order for i in rows}
    if sorted(rows) != sorted(workloads.KERNEL3_ROWS + workloads.KERNEL9_ROWS) or any(
        kernels[i] != 3 for i in workloads.KERNEL3_ROWS
    ) or any(kernels[i] != 9 for i in workloads.KERNEL9_ROWS):
        raise SystemExit(f"degree-9 rows or kernel orders changed: {kernels}")
    for row in rows:
        key = f"{wl.name}/chi{row}"
        text = workloads.render(verify.monomial_witness_search(group, row, table=table).to_json())
        write(key, text)
        if not wl.check((group, table), key, text):
            raise SystemExit(f"{key}: witness fails re-verification")


if __name__ == "__main__":
    capture_catalog()
    capture_table()
    capture_witness()
