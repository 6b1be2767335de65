"""Benchmark of dolrep's analysis path, one workload per run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  Every system of the workload is taken the way the CLI takes it,
in process: system text -> ``cli.parse_system`` -> ``engine.analyze`` ->
``cli.report_to_dict`` + ``json.dumps`` (on ``verify`` also the oracle
check of the acceptance suite).  One pass runs the workload's whole fixed
set; passes repeat until ``--seconds`` have gone by, and every pass's
output is checked.  The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  Details (pass times, per-group times, the spans
of the last traced pass) go to ``perfbench/results/``.  The exit code is 0
when every output checked out; 1 when a check failed, the program raised or
no dolrep sources were found; 2 on a usage error.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("corpus", "cyclic", "wide", "verify")
SETUP_REPEATS = 3

if not os.path.isfile(os.path.join(SRC, "dolrep", "__init__.py")):
    sys.exit(f"error: no dolrep sources in {SRC}; run from the root of a dolrep checkout")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import dolrep  # noqa: E402
from dolrep import cli, engine, oracle  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import APPLY, COUNTED, SPANS, Tracer, write_spans  # noqa: E402

IMPORT_S = time.perf_counter() - _START

# The paper's system G, run through the pass path before timing starts.
WARM_UP_RAW = (((0, 1, 2), (2,), (1,)), (0,))


def analyze_text(text: str):
    system = cli.parse_system(text)
    report = engine.analyze(system)
    return system, report, json.dumps(cli.report_to_dict(report), indent=2)


def oracle_level(system, raw, reps) -> int | None:
    """First rung of the suite's escalation ladder where the oracle agrees."""
    max_len = max([8] + [len(r) for r in reps])
    for level, (depth_cap, budget) in enumerate(workloads.ESCALATION):
        params = oracle.OracleParams(
            depth=workloads.oracle_depth(raw, depth_cap, budget),
            max_len=max_len,
            power_threshold=3,
            max_word_len=2 * budget,
        )
        if oracle.observed_classes(system, params) == reps:
            return level
    return None


def run_pass(cases, verify: bool):
    """Outputs of one pass, and its seconds per group.

    An exception from the program ends the run: no workload has a system
    the program fails on.
    """
    outputs = []
    groups: Counter = Counter()
    for case in cases:
        start = time.perf_counter()
        system, report, out = analyze_text(case.text)
        if verify:
            reps = {cls.representative for cls in report.classes}
            out = (out, oracle_level(system, case.raw, reps))
        groups[case.group] += time.perf_counter() - start
        outputs.append(out)
    return outputs, groups


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.verify = name == "verify"
        self.cases = workloads.cases(name, seed)
        self.reference = checks.load_corpus_classes() if name == "corpus" else None

    def check(self, outputs) -> None:
        for case, out in zip(self.cases, outputs):
            if self.verify:
                out, level = out
                checks.expect(level is not None, case, "engine and oracle disagree at every level")
            report = json.loads(out)
            checks.check_well_formed(case, report)
            if self.name == "corpus":
                index = int(case.name.split("-")[1])
                checks.check_against(case, report, self.reference[index])
            elif self.name == "cyclic":
                checks.check_cyclic(case, report)

    def check_invariance(self, outputs) -> None:
        """Wide systems: same classes after renaming, and from the axiom phi(w)."""
        rng = random.Random(f"renamed/{self.seed}")
        for case, out in zip(self.cases, outputs):
            report = json.loads(out)
            other = workloads.relabel(case.name, case.group, case.raw, rng, permute=True)
            checks.check_renamed(case, report, other, json.loads(analyze_text(other.text)[2]))
            images, axiom = case.raw
            pushed = case.with_axiom(tuple(b for a in axiom for b in images[a]))
            checks.check_same_classes(
                case, report, json.loads(analyze_text(pushed.text)[2]), "from the axiom phi(w)"
            )


def set_up(name: str, seed: int) -> tuple[Workload, float]:
    """Inputs and warm-up, repeated; returns the last and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = Workload(name, seed)
        warm = workloads.relabel("warm-up", "warm-up", WARM_UP_RAW, random.Random(seed))
        run_pass([warm], workload.verify)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


class Passes:
    """Timed passes over the workload until the time is up, all checked.

    With a tracer, every untraced pass is followed by a traced one, so both
    kinds sample the same stretches of machine noise.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.groups: dict[str, list[float]] = defaultdict(list)
        self.outputs = None
        self.attempted = 0

    def one(self, workload: Workload, tracer: Tracer | None = None) -> None:
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            outputs, groups = run_pass(workload.cases, workload.verify)
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.remove()
        self.attempted += len(workload.cases)
        if tracer is None:
            self.times.append(elapsed)
            for group, spent in groups.items():
                self.groups[group].append(spent)
        else:
            self.traced_times.append(elapsed)
            tracer.fold()
        if self.outputs is None:
            workload.check(outputs)
            self.outputs = outputs
        elif outputs != self.outputs:
            raise checks.CheckError("a pass's reports differ from the first pass's")

    def run(self, workload: Workload, seconds: float, tracer: Tracer | None = None) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self.one(workload)
            if tracer is not None:
                self.one(workload, tracer)
            if time.perf_counter() >= deadline:
                return


def end_to_end(workload: Workload, seconds: float, setup_s: float):
    passes = Passes()
    passes.run(workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload.name == "wide":
        workload.check_invariance(passes.outputs)
    metrics = {
        "systems_per_s": (len(workload.cases) / statistics.median(passes.times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return passes, metrics


def per_layer(workload: Workload, seconds: float):
    """Untraced and traced passes in turn; their reports must be identical."""
    passes = Passes()
    tracer = Tracer()
    passes.run(workload, seconds, tracer)
    if workload.name == "wide":
        workload.check_invariance(passes.outputs)

    n = len(passes.traced_times)
    metrics = {}
    for module, attr in SPANS:
        name = f"{module}.{attr}"
        total, own = tracer.totals.get(name, (0.0, 0.0))
        metrics[f"{name}.calls"] = (tracer.counts[f"{name}.calls"] / n, "count")
        metrics[f"{name}.total_ms"] = (total * 1000 / n, "ms")
        metrics[f"{name}.self_ms"] = (own * 1000 / n, "ms")
    for name in [f"{module}.{attr}.calls" for module, attr in COUNTED] + [
        "unbounded.first_letter_candidates.candidates",
        "unbounded.lando_periodic_check.accepted",
        f"{APPLY}.letters",
    ]:
        metrics[name] = (tracer.counts[name] / n, "count")
    metrics[f"{APPLY}.max_letters"] = (tracer.max_apply, "count")
    untraced_ms = statistics.median(passes.times) * 1000
    traced_ms = statistics.median(passes.traced_times) * 1000
    metrics["bench.pass.untraced_ms"] = (untraced_ms, "ms")
    metrics["bench.pass.traced_ms"] = (traced_ms, "ms")
    metrics["bench.pass.trace_overhead_ms"] = (traced_ms - untraced_ms, "ms")
    return passes, metrics, tracer.last_spans


def write_details(args, passes: Passes, result: dict, setup_s: float, spans=None) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "dolrep_version": dolrep.__version__,
        "import_s": IMPORT_S,
        "setup_s": setup_s,
        "pass_s": passes.times,
        "traced_pass_s": passes.traced_times,
        "group_median_s": {g: statistics.median(t) for g, t in sorted(passes.groups.items())},
        "result": result,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    if spans is not None:
        write_spans(spans, stem + "-spans.csv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spans = None
    try:
        workload, setup_s = set_up(args.workload, args.seed)
        if args.trace:
            passes, metrics, spans = per_layer(workload, args.seconds)
        else:
            passes, metrics = end_to_end(workload, args.seconds, IMPORT_S + setup_s)
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": True,
        "attempted": passes.attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_details(args, passes, result, setup_s, spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
