"""One benchmark run of charprod, from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run imports the program from ./src, builds its inputs from the seed, and
measures passes of the workload until the next pass would overrun --seconds
(at least one pass).  Each pass starts from a fresh set-up, so the program's
memos start cold in every pass, as they do in every charprod invocation.
Every op's output is checked byte for byte against the captured reference.
End-to-end times are calibrated to a reference speed of the machine (see
speed.py); the raw times are in the notes line.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json; with --trace 1 the run measures untraced passes,
then traced ones, and reports the per-layer metrics.  The line before it
holds the machine and run notes.  Exit code 2 means the run could not start
(no program source, or CHARPROD_CLOSURE_CAP set).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import speed
import tracer as tracing

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("catalog_verify", "table_2187", "witness_2187")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 9
IMPORTED = ("charprod", "numpy")
IMPORT_PROGRAM = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import speed; "
    "own, scale = speed.timed_import(sys.argv[3:]); print(own, scale.wall, scale.cpu, scale.samples)"
)
CAP_ENV_VAR = "CHARPROD_CLOSURE_CAP"


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=_positive_int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """What one measuring loop saw."""

    def __init__(self):
        self.setups = []  # own wall seconds per set-up
        self.walls = []  # own wall seconds per pass (sum over its ops)
        self.cpus = []  # own process CPU seconds per pass
        self.setup_scales, self.pass_scales = [], []  # speed.Scale of each
        # The times calibrated to the reference speed (equal to the above
        # when the clock is a speed.RawClock); set by finish().
        self.cal_setups, self.cal_walls, self.cal_cpus = [], [], []
        self.run_scale = speed.Scale()
        self.attempted = 0
        self.failed_keys = []
        self.rss_mb = 0.0
        self.spans, self.counts = {}, Counter()
        self.setup_spans = {}

    def finish(self, run_scale):
        """Calibrate the times.  A window that holds fewer than
        speed.MIN_SAMPLES kernel samples takes the factors of the whole run."""
        self.run_scale = run_scale
        setups = [speed.trusted(s, run_scale) for s in self.setup_scales]
        passes = [speed.trusted(s, run_scale) for s in self.pass_scales]
        self.cal_setups = [t * s.wall for t, s in zip(self.setups, setups)]
        self.cal_walls = [t * s.wall for t, s in zip(self.walls, passes)]
        self.cal_cpus = [t * s.cpu for t, s in zip(self.cpus, passes)]


def _merge(total, spans):
    for name, rec in spans.items():
        acc = total.setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += rec[i]


def _setup(workload, phase, clock):
    with clock.window(speed.SHORT_INTERVAL_S) as scale:
        start, _ = clock.now()
        state = workload.setup()
        end, _ = clock.now()
    phase.setups.append(end - start)
    phase.setup_scales.append(scale)
    return state


def measure(workload, seconds, setup_samples, tracer=None, clock=None):
    """Run passes until the next one would overrun ``seconds``.  ``clock``
    is a speed.Sampler to calibrate the times, or None for raw times."""
    phase = Phase()
    clock = clock or speed.RawClock()
    # A group and its table refer to each other, so only the cycle collector
    # frees them.  Collect after every set-up and pass, outside the timings,
    # so that no timed section or set-up pays for garbage left before it.
    gc.collect()
    for _ in range(setup_samples - 1):
        _setup(workload, phase, clock)
        gc.collect()
    loop_start = time.perf_counter()
    while True:
        state = _setup(workload, phase, clock)
        gc.collect()
        if tracer is not None:
            _merge(phase.setup_spans, tracer.take()[0])

        outputs, wall, cpu = [], 0.0, 0.0
        with clock.window() as scale:
            for key, op in workload.ops(state, len(phase.walls)):
                w0, c0 = clock.now()
                try:
                    text = op()
                except Exception:  # a raising op is a failed op; the run goes on
                    traceback.print_exc()
                    text = None
                w1, c1 = clock.now()
                wall += w1 - w0
                cpu += c1 - c0
                outputs.append((key, text))
        if tracer is not None:
            spans, counts = tracer.take()
            _merge(phase.spans, spans)
            phase.counts.update(counts)
        phase.rss_mb = peak_rss_mb()
        phase.walls.append(wall)
        phase.cpus.append(cpu)
        phase.pass_scales.append(scale)

        for key, text in outputs:
            phase.attempted += 1
            try:
                ok = text is not None and workload.check(state, key, text)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                phase.failed_keys.append(key)
                print(f"FAILED {key}", file=sys.stderr)
        if tracer is not None:
            tracer.take()  # discard what the checks ran
        del state, outputs
        gc.collect()
        if time.perf_counter() - loop_start + max(phase.walls) > seconds:
            phase.finish(clock.run_scale())
            return phase


def import_seconds(count):
    """speed.timed_import of charprod in ``count`` fresh interpreters, one
    after the other, each waited for."""
    out = []
    for _ in range(count):
        text = subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(Path(__file__).resolve().parent), str(SRC),
                               *IMPORTED], check=True, capture_output=True, text=True, timeout=60).stdout
        own, wall, cpu, samples = text.split()
        out.append((float(own), speed.Scale(float(wall), float(cpu), int(samples))))
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def calibrated_imports(imports, run_scale):
    return [own * speed.trusted(scale, run_scale).wall for own, scale in imports]


def end_to_end(phase, import_s):
    attempted = phase.attempted
    return {
        "wall_s": metric(statistics.median(phase.cal_walls), "s"),
        "cpu_s": metric(statistics.median(phase.cal_cpus), "s"),
        "peak_rss_mb": metric(phase.rss_mb, "MB"),
        "setup_s": metric(import_s + statistics.median(phase.cal_setups), "s"),
        "verified_ratio": metric((attempted - len(phase.failed_keys)) / attempted, "ratio"),
    }


def per_layer(untraced, traced):
    passes = len(traced.walls)
    values = tracing.layer_metrics(traced.spans, traced.counts, traced.setup_spans, passes, len(traced.setups))
    traced_wall = sum(traced.walls) / passes
    attributed = sum(rec[2] for rec in traced.spans.values()) / passes
    values["traced_wall_s"] = traced_wall
    values["unattributed_s"] = traced_wall - attributed
    values["trace_overhead_s"] = statistics.median(traced.walls) - statistics.median(untraced.walls)
    return {name: metric(v, _unit(name)) for name, v in values.items()}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_reuse", "_yield")):
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    if os.environ.get(CAP_ENV_VAR) is not None:
        print(f"bench: {CAP_ENV_VAR} is set; it changes the program under test, refusing to run",
              file=sys.stderr)
        return 2
    if not (SRC / "charprod" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'charprod'}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()

    sys.path.insert(0, str(SRC))
    imports = [speed.timed_import(IMPORTED)]
    import charprod
    import numpy

    if Path(charprod.__file__).resolve().parent != (SRC / "charprod").resolve():
        print(f"bench: imported charprod from {charprod.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    if not args.trace:
        imports += import_seconds(IMPORT_SAMPLES - 1)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        untraced = measure(workload, args.seconds, 1)
        with tracing.Tracer().install(charprod) as tracer:
            traced = measure(workload, args.seconds, 1, tracer)
        phases = (untraced, traced)
        metrics = per_layer(untraced, traced)
    else:
        phases = (measure(workload, args.seconds, SETUP_SAMPLES, clock=speed.Sampler()),)
        import_s = statistics.median(calibrated_imports(imports, phases[0].run_scale))
        metrics = end_to_end(phases[0], import_s)

    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failed_keys) for p in phases)
    notes = {
        "workload": args.workload,
        "roadmap": workload.roadmap,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "raw_import_s": [own for own, _ in imports],
        "calibrated_import_s": calibrated_imports(imports, phases[0].run_scale),
        "import_kernel_samples": [scale.samples for _, scale in imports],
        "passes": [len(p.walls) for p in phases],
        "raw_pass_wall_s": [p.walls for p in phases],
        "raw_pass_cpu_s": [p.cpus for p in phases],
        "raw_setup_s": [p.setups for p in phases],
        "calibrated_pass_wall_s": [p.cal_walls for p in phases],
        "calibrated_setup_s": [p.cal_setups for p in phases],
        "pass_kernel_samples": [[s.samples for s in p.pass_scales] for p in phases],
        "setup_kernel_samples": [[s.samples for s in p.setup_scales] for p in phases],
        "run_scale": [p.run_scale.wall for p in phases],
        "failed_ops": [k for p in phases for k in p.failed_keys],
    }
    print(json.dumps({"notes": notes}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
