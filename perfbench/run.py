"""Layered benchmark for toricsum: one closed-loop client, one workload per run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload family-sum --seed 1 --seconds 30 --trace 0

The run generates the workload's inputs from the seed, measures set-up in
fresh processes, then runs ops back to back for ``--seconds`` (always at
least one whole pass over the input mix), checking every answer.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs every op untraced and then traced and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON record of the environment, the answer checksum and the details
behind the metrics.  The program is imported from ``src/`` of the checkout
this file sits in, and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from speed import SpeedGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
PARSE_REPEATS = 5


class ProgramMissing(RuntimeError):
    pass


def load_program() -> Any:
    """Import toricsum from this checkout's ``src/``, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "toricsum" / "__init__.py").is_file():
        raise ProgramMissing(f"no toricsum sources under {src}")
    sys.path.insert(0, str(src))
    import toricsum
    import toricsum.cli

    location = Path(toricsum.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ProgramMissing(f"toricsum was imported from {location}, not from {src}")
    return toricsum


def git_commit() -> Optional[str]:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def measure_setup(paths: list[Path], expected_ideals: int, gauge: SpeedGauge) -> tuple[float, float]:
    """Median time of a fresh process importing toricsum and parsing the inputs.

    Returns the normalised and the raw median.
    """
    spans = []
    for _ in range(SETUP_REPEATS):
        gauge.calibrate(force=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *map(str, paths)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        spans.append((start, time.perf_counter() - start))
        if proc.returncode != 0 or proc.stdout.strip() != str(expected_ideals):
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip() or proc.stdout.strip()}")
    gauge.calibrate(force=True)
    return (statistics.median(gauge.normalise(s, t) for s, t in spans),
            statistics.median(t for _, t in spans))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``; with fewer than eleven
    samples it falls back to the maximum, with fewer than ten beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


class Runner:
    """Closed loop over one workload's input mix, checking every answer."""

    def __init__(self, workload: Any, cases: list, op_inputs: list, seed: int):
        self.workload = workload
        self.seed = seed
        self.cases = cases
        self.op_inputs = op_inputs
        self.order_rng = random.Random(f"perfbench:order:{workload.name}:{seed}")
        self.verified: dict[int, str] = {}
        self.canonical: dict[int, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.warnings = 0

    def passes(self):
        """Case indices, each pass over the mix in a fresh seeded order."""
        while True:
            order = list(range(len(self.cases)))
            self.order_rng.shuffle(order)
            yield from ((i, pos == len(order) - 1) for pos, i in enumerate(order))

    def timed_op(self, i: int) -> tuple[float, float]:
        """Run case ``i`` once and check its answer; return the op's start and seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            answer, warned = self.workload.run(self.op_inputs[i])
        except Exception as exc:  # noqa: BLE001 - any raise is a failed op
            elapsed = time.perf_counter() - start
            self._fail(i, f"raised {type(exc).__name__}: {exc}")
            return start, elapsed
        elapsed = time.perf_counter() - start
        self.warnings += warned
        digest = self.workload.digest(answer)
        if self.verified.get(i) != digest:
            problems = self.workload.check(self.cases[i], answer)
            if problems:
                self._fail(i, "; ".join(problems))
            else:
                self.verified[i] = digest
                self.canonical.setdefault(i, self.workload.canonical(self.cases[i], answer))
        return start, elapsed

    def _fail(self, i: int, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{self.cases[i].label}: {message}")

    def checksum(self) -> str:
        h = hashlib.sha256()
        for i in range(len(self.cases)):
            h.update(repr(self.canonical.get(i)).encode())
        return h.hexdigest()[:16]


def run_loop(runner: Runner, seconds: float, step) -> None:
    """Call ``step(i)`` until the time is up and at least one pass is whole."""
    runner.timed_op(0)  # warm-up, not recorded
    runner.attempted = runner.failed = runner.warnings = 0
    deadline = time.perf_counter() + seconds
    whole_pass = False
    for i, last_of_pass in runner.passes():
        step(i)
        whole_pass = whole_pass or last_of_pass
        if whole_pass and time.perf_counter() >= deadline:
            break


def end_to_end(runner: Runner, seconds: float, setup: tuple[float, float],
               gauge: SpeedGauge) -> tuple[dict, dict]:
    timed: list[tuple[int, float, float]] = []

    def step(i: int) -> None:
        gauge.calibrate()
        start, elapsed = runner.timed_op(i)
        timed.append((i, start, elapsed))

    run_loop(runner, seconds, step)
    gauge.calibrate(force=True)
    samples = [gauge.normalise(start, elapsed) for _, start, elapsed in timed]
    per_case: dict[int, list[float]] = {}
    for (i, _, _), t in zip(timed, samples):
        per_case.setdefault(i, []).append(t)
    tail_value, tail_pct, beyond = tail(samples)
    # Throughput over the fixed mix: each case once, at its median time.
    mix_s = sum(statistics.median(ts) for ts in per_case.values())
    raw = [elapsed for _, _, elapsed in timed]
    metrics = {
        "setup_s": (setup[0], "s"),
        "latency_p50_s": (statistics.median(samples), "s"),
        "latency_tail_s": (tail_value, "s"),
        "throughput_ops_s": (len(per_case) / mix_s, "ops/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": (1.0 - runner.failed / runner.attempted, "share"),
    }
    details = {
        "ops": len(samples),
        "mix_size": len(runner.cases),
        "latency_tail_percentile": round(tail_pct, 3),
        "latency_tail_beyond": beyond,
        "failed_share": runner.failed / runner.attempted,
        "raw_setup_s": setup[1],
        "raw_latency_p50_s": statistics.median(raw),
        "raw_latency_tail_s": tail(raw)[0],
        "calibration_s": gauge.median(),
    }
    return metrics, details


def per_layer(runner: Runner, seconds: float, setup_layers: dict) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    ops = 0

    def step(i: int) -> None:
        nonlocal plain_s, traced_s, ops
        plain_s += runner.timed_op(i)[1]
        ops += 1
        tracer.op_id = ops
        tracer.enabled = True
        try:
            traced_s += runner.timed_op(i)[1]
        finally:
            tracer.enabled = False

    with tracer:
        run_loop(runner, seconds, step)
        spans_path = ROOT / ".perfbench" / f"trace-{runner.workload.name}-seed{runner.seed}.jsonl.gz"
        tracer.write(str(spans_path))
    self_s = tracer.self_by_group()
    counters, maxima = tracer.counters, tracer.maxima
    per_op = 1.0 / ops

    metrics: dict[str, tuple[float, str]] = {}
    for group in ("exact_linalg.rank", "exact_linalg.solve_row_rational",
                  "exact_linalg.inverse_and_clear", "exact_linalg.normal_form",
                  "parametrization.homogeneity_certificate", "parametrization.normalize_pin",
                  "parametrization.from_lattice", "parametrization.evaluate",
                  "sums.sum_family", "sums.sum_shared", "oracle.enumerate", "oracle.rewrite",
                  "cli.main"):
        metrics[f"{group}.calls"] = (tracer.calls(group) * per_op, "count/op")
        metrics[f"{group}.self_s"] = (self_s.get(group, 0.0) * per_op, "s/op")
    enumerated = counters.get("oracle.monomials_enumerated", 0.0)
    found = counters.get("oracle.kernel_binomials_found", 0.0)
    attempts = counters.get("oracle.rewrite.attempts", 0.0)
    metrics.update({
        "exact_linalg.max_entry_bits": (maxima.get("exact_linalg.max_entry_bits", 0), "bits"),
        "parametrization.pin_exponent_max": (maxima.get("parametrization.pin_exponent_max", 0), "count"),
        "sums.gamma_max": (maxima.get("sums.gamma_max", 0), "count"),
        "sums.usage_warnings": (runner.warnings / (2 * ops), "count/op"),
        "sums.usage_check.incl_s": (counters.get("sums.usage_check.incl_s", 0.0) * per_op, "s/op"),
        "sums.k_exponent": (k_exponent(tracer.family_times), "ratio"),
        "oracle.monomials_enumerated": (enumerated * per_op, "count/op"),
        "oracle.kernel_binomials_found": (found * per_op, "count/op"),
        "oracle.enumerate.yield": (found / enumerated if enumerated else 0.0, "ratio"),
        "oracle.rewrite.chain_steps": (counters.get("oracle.rewrite.chain_steps", 0.0) * per_op, "count/op"),
        "oracle.rewrite.hit_ratio": (
            counters.get("oracle.rewrite.hits", 0.0) / attempts if attempts else 0.0, "ratio"),
        "trace.overhead_ratio": (traced_s / plain_s, "ratio"),
        "trace.op_s": (traced_s * per_op, "s/op"),
    })
    metrics.update(setup_layers)
    layer_total = 0.0
    for layer in tracing.LAYERS:
        value = sum(v for g, v in self_s.items() if g.startswith(layer + ".")) * per_op
        metrics[f"layer.{layer}.self_s"] = (value, "s/op")
        layer_total += value
    metrics["layer.other.self_s"] = (traced_s * per_op - layer_total, "s/op")
    details = {"ops": ops, "spans": len(tracer.spans), "span_file": str(spans_path.relative_to(ROOT))}
    return metrics, details


def k_exponent(times: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(sum_family seconds) against log(k), k >= 2."""
    points = [(math.log(k), math.log(t)) for k, t in times if k >= 2 and t > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*points)).slope


def setup_layers(texts: list[str]) -> dict:
    """Per-layer cost of parsing the inputs in-process: median of a few parses."""
    import toricsum.cli
    import tracing

    runs: dict[str, list[float]] = {}
    with tracing.Tracer() as tracer:
        for _ in range(PARSE_REPEATS):
            tracer.reset()
            tracer.enabled = True
            try:
                for text in texts:
                    toricsum.cli.parse_ideal_file(text)
            finally:
                tracer.enabled = False
            self_s = tracer.self_by_group()
            runs.setdefault("cli.parse_ideal_file.self_s", []).append(self_s["cli.parse_ideal_file"])
            runs.setdefault("binomials.self_s", []).append(self_s.get("binomials.text", 0.0))
    return {
        "cli.parse_ideal_file.self_s": (statistics.median(runs["cli.parse_ideal_file.self_s"]), "s"),
        "cli.parse_ideal_file.lines": (sum(len(t.splitlines()) for t in texts), "count"),
        "binomials.self_s": (statistics.median(runs["binomials.self_s"]), "s"),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import inputs
    import workloads
    from speed import SpeedGauge

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    cases = inputs.CASES[args.workload](args.seed)

    work_dir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for n, case in enumerate(cases):
            path = work_dir / f"input-{n}.ideal"
            path.write_text(case.text, encoding="utf-8")
            paths.append(path)
        runner = Runner(workload, cases, workload.prepare(cases, paths), args.seed)
        if args.trace:
            metrics, details = per_layer(runner, args.seconds, setup_layers([c.text for c in cases]))
        else:
            expected = sum(ln.startswith("ideal ") for c in cases for ln in c.text.splitlines())
            gauge = SpeedGauge()
            setup = measure_setup(paths, expected, gauge)
            metrics, details = end_to_end(runner, args.seconds, setup, gauge)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "checksum": runner.checksum(), "usage_warnings": runner.warnings,
        "problems": runner.problems, "environment": environment(), **details,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
