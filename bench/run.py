"""seqcong benchmark: one closed-loop client running a named, seeded workload.

Usage, from the repository root::

    python3 bench/run.py --workload {cli_stream,ideal_jobs,counting_mix} \
        --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout the script sits in;
nothing is installed.  One client sends one request at a time and waits for
the answer (a closed loop); the only other process ever running is the one
``seqcong`` child of a cli_stream request or a set-up probe.  The client and
its children are pinned to one CPU.

A run measures whole cycles of the workload's seeded request list: as many
as fit in ``--seconds`` at the cycle's nominal cost on the reference machine.
The amount of work therefore depends on ``--seconds`` alone, not on how fast
the code under test is, so two commits are measured on the same samples.
Times are adjusted to one reference host speed by ``speed.SpeedProbe``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
cycles with cycles that record a span around every call into the library's
public functions, half as many of each, and prints the per-layer metrics.  Every answer
is checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# Nominal seconds per cycle on the reference machine (see README.md).
CYCLE_SECONDS = {"cli_stream": 6.0, "ideal_jobs": 5.0, "counting_mix": 3.2}
# Set-up probes per cycle, spread through the run so that their median sees
# the same machine as the requests do.
SETUP_PER_CYCLE = 3


def setup_seconds(wl, count: int, probe=None) -> list[float]:
    """Time from launching a fresh interpreter to its first line of output.

    Wall time, or the probe's adjusted time when a probe is given.
    """
    from workloads import seqcong_env

    times = []
    for _ in range(count):
        start = probe.before() if probe else 0
        t0 = time.perf_counter()
        with subprocess.Popen(wl.setup_argv(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=seqcong_env(), cwd=ROOT, text=True) as proc:
            first = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=60)
        if proc.returncode != 0 or not first.strip():
            raise RuntimeError(f"set-up probe failed: {err.strip()[:300]}")
        times.append(probe.adjusted(start, t1 - t0) if probe else t1 - t0)
    return times


class Phase:
    """Latencies and outcomes of the requests one measuring pass completed.

    ``latency`` holds adjusted times when the pass ran under a speed probe and
    wall times otherwise; ``wall`` always holds wall times.
    """

    def __init__(self):
        self.latency: list[float] = []
        self.wall: list[float] = []
        self.outcomes = []
        self.requests = []
        self.cycles = 0

    def add(self, req, seconds, wall, outcome):
        self.requests.append(req)
        self.latency.append(seconds)
        self.wall.append(wall)
        self.outcomes.append(outcome)


def run_cycle(wl, c: int, phase: Phase, tracer=None, cli_prefix=None, probe=None) -> None:
    """Run cycle c, timing each request alone.

    Before each request the previous answer is dropped and a garbage
    collection runs, outside the timed region, so no request pays for freeing
    or collecting what an earlier one left behind.
    """
    for req in wl.cycle(c):
        gc.collect()
        start = probe.before() if probe else 0
        if tracer is not None:
            tracer.request_id = len(phase.latency)
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = wl.execute(req, cli_prefix) if cli_prefix else wl.execute(req)
        except Exception as exc:  # an unexpected exception is a failed request
            result = exc
        t1 = time.perf_counter()
        seconds = probe.adjusted(start, t1 - t0) if probe else t1 - t0
        if tracer is not None:
            tracer.active = False
        if cli_prefix:
            tracer.extend(_child_spans(), tracer.request_id)
        phase.add(req, seconds, t1 - t0, wl.check(req, result))
        del result
    phase.cycles += 1


def measure(wl, cycles: int, setup: list) -> Phase:
    """Untraced cycles, with set-up launches appended to ``setup`` before each.

    Requests and launches are timed under one speed probe.
    """
    from speed import SpeedProbe

    phase = Phase()
    gc.collect()
    gc.freeze()
    with SpeedProbe() as probe:
        for c in range(cycles):
            setup.extend(setup_seconds(wl, SETUP_PER_CYCLE, probe))
            run_cycle(wl, c, phase, probe=probe)
    return phase


def measure_traced(wl, cycles: int):
    """Alternate untraced and traced cycles, ``cycles`` of each.

    Alternating keeps both halves on the same stretch of machine time, so the
    ratio of their busy times measures the tracing cost and not host drift.
    The wrappers are in place only during traced cycles.
    """
    from spans import Tracer

    plain, traced, tracer = Phase(), Phase(), Tracer()
    prefix = None
    if wl.name == "cli_stream":
        prefix = [sys.executable, str(HERE / "traced_cli.py"), str(OUT / "cli-child.tsv")]
    gc.collect()
    gc.freeze()
    for c in range(2 * cycles):
        if c % 2 == 0:
            run_cycle(wl, c, plain)
        elif prefix:
            run_cycle(wl, c, traced, tracer, prefix)
        else:
            tracer.install()
            run_cycle(wl, c, traced, tracer)
            tracer.uninstall()
    return plain, traced, tracer


def _child_spans():
    from spans import read_rows

    path = OUT / "cli-child.tsv"
    if not path.exists():  # the child died early; its check reports why
        return []
    rows = list(read_rows(path))
    path.unlink()
    return rows


def tail(values):
    """The highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_stream" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def totals(*phases):
    outs = [o for ph in phases for o in ph.outcomes]
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    return attempted, failed, not any(o.wrong for o in outs), outs


def end_to_end(wl, phase: Phase, setup: list[float]) -> dict:
    """The end-to-end metrics, from adjusted times; wall figures are printed beside them."""
    attempted, failed, _, outs = totals(phase)
    busy = sum(phase.latency)
    tail_s, pct = tail(phase.latency)
    n = len(phase.latency)
    wall = sum(phase.wall)
    print(f"  wall clock: {n / wall:.3f} requests/s, p50 {1000 * statistics.median(phase.wall):.3f} ms,"
          f" tail {1000 * tail(phase.wall)[0]:.3f} ms; adjusted/wall busy time {busy / wall:.4f}")
    rows = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "requests_per_s": (n / busy, "1/s", f"{n} requests over {busy:.3f} s busy, adjusted"),
        "lines_per_s": (sum(o.lines for o in outs) / busy, "1/s",
                        f"{sum(o.lines for o in outs)} answer lines correct"),
        "latency_p50_ms": (1000 * statistics.median(phase.latency), "ms", f"n={n}"),
        "latency_tail_ms": (1000 * tail_s, "ms", f"p{pct:.2f}, n={n}, 10 samples beyond"),
        "success_ratio": (1 - failed / attempted, "ratio",
                          f"failed_ratio={failed / attempted:.6f} ({failed} of {attempted})"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB",
                        "largest child" if wl.name == "cli_stream" else "this process"),
    }
    for name, (value, unit, note) in rows.items():
        print(f"  {name:<16} {value:>14.6f} {unit:<6} {note}")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()}


# Per-layer metrics that are mean self time per call of one span name.
PER_CALL_US = {
    "partition.construct_us": "partition.construct",
    "partition.conjugate_us": "partition.conjugate",
    "bijections.pi_map_us": "bijections.pi_map",
    "bijections.sigma_map_us": "bijections.sigma_map",
    "bijections.pi_sigma_us": "bijections.pi_sigma",
    "bijections.psi_map_us": "bijections.psi_map",
    "bijections.psi_inverse_us": "bijections.psi_inverse",
    "bijections.c_codec_us": "bijections.c_codec",
    "generalized.n_codec_us": "generalized.n_codec",
    "generalized.gmap_us": "generalized.gmap",
    "generalized.gcheck_us": "generalized.gcheck",
}
# Per-layer metrics that are self seconds per cycle of one span name.
BUSY_PER_CYCLE_S = {
    "counting.count_members_busy_s": "counting.count_members",
    "counting.enumerate_busy_s": "counting.enumerate",
    "ideals.closure_busy_s": "ideals.closure",
    "ideals.order_busy_s": "ideals.order",
    "ideals.link_busy_s": "ideals.link",
    "ideals.modulus_busy_s": "ideals.modulus",
    "ideals.lset_busy_s": "ideals.lset",
    "ideals.members_within_busy_s": "ideals.members_within",
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(wl, plain: Phase, traced: Phase, tracer) -> dict:
    st = tracer.self_times()
    calls = lambda name: st[name][0] if name in st else 0  # noqa: E731
    incl = lambda name: st[name][1] if name in st else 0.0  # noqa: E731
    own = lambda name: st[name][2] if name in st else 0.0  # noqa: E731
    cycles = traced.cycles
    m = {}
    for metric, name in PER_CALL_US.items():
        m[metric] = (1e6 * _ratio(own(name), calls(name)), "us")
    runs = calls("cli.run")
    lines = sum(o.attempted for o in traced.outcomes) if wl.name == "cli_stream" else 0
    single = [s for req, s in zip(plain.requests, plain.latency) if getattr(req, "lines", 0) == 1]
    m["cli.import_ms"] = (1e3 * _ratio(own("cli.import"), runs), "ms")
    m["cli.first_answer_ms"] = (1e3 * statistics.median(single) if single else 0.0, "ms")
    m["cli.per_line_us"] = (1e6 * _ratio(incl("cli.run"), lines), "us")
    m["cli.self_per_line_us"] = (1e6 * _ratio(own("cli.run"), lines), "us")

    def work_sum(key):
        return sum(o.work.get(key, 0) for o in traced.outcomes)

    def latency_where(pred):
        return [s for o, s in zip(traced.outcomes, traced.latency) if pred(o)]

    brute = latency_where(lambda o: "partitions" in o.work)
    m["counting.partitions_per_s"] = (_ratio(work_sum("partitions"), sum(brute)), "1/s")
    fresh = latency_where(lambda o: o.tag == "write")
    repeat = latency_where(lambda o: o.tag == "read")
    m["counting.series_fresh_ms"] = (1e3 * statistics.median(fresh) if fresh else 0.0, "ms")
    m["counting.series_repeat_us"] = (1e6 * statistics.median(repeat) if repeat else 0.0, "us")
    m["ideals.members_checked"] = (_ratio(work_sum("members_checked"), cycles), "count")
    closure = latency_where(lambda o: "members_checked" in o.work)
    m["ideals.closure_members_per_s"] = (_ratio(work_sum("members_checked"), sum(closure)), "1/s")
    m["ideals.widths_refuted"] = (_ratio(work_sum("refuted_up_to"), cycles), "count")
    for metric, name in BUSY_PER_CYCLE_S.items():
        m[metric] = (_ratio(own(name), cycles), "s")
    m["trace.overhead_ratio"] = (_ratio(sum(traced.latency), sum(plain.latency)), "ratio")
    m = dict(sorted(m.items()))
    for name, (value, unit) in m.items():
        print(f"  {name:<32} {value:>16.6f} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CYCLE_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One CPU for the client and, by inheritance, its children: the speed
    # probe then times the CPU that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    src = ROOT / "src"
    if not (src / "seqcong" / "__init__.py").is_file():
        print(f"error: no seqcong sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    import seqcong

    if Path(seqcong.__file__).resolve().parent != (src / "seqcong").resolve():
        print(f"error: imported seqcong from {seqcong.__file__}, not {src}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    cycles = max(1, round(args.seconds / CYCLE_SECONDS[args.workload]))
    print(f"seqcong benchmark: workload={args.workload} seed={args.seed} cycles={cycles} "
          f"trace={args.trace} python={sys.version.split()[0]}")
    wl = WORKLOADS[args.workload](args.seed)
    # One uncounted launch first: it compiles byte code, which a user pays
    # once per install, not once per run.
    setup_seconds(wl, 1)

    if args.trace == 0:
        setup = []
        phase = measure(wl, cycles, setup)
        metrics = end_to_end(wl, phase, setup)
        phases = (phase,)
    else:
        plain, traced, tracer = measure_traced(wl, max(1, cycles // 2))
        tracer.write(OUT / f"spans-{wl.name}.tsv")
        print(f"  {len(tracer)} spans written to {OUT / f'spans-{wl.name}.tsv'}")
        metrics = per_layer(wl, plain, traced, tracer)
        phases = (plain, traced)

    attempted, failed, correct, outs = totals(*phases)
    for note in sorted({o.note for o in outs if o.note})[:20]:
        print(f"  check: {note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
