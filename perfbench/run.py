#!/usr/bin/env python3
"""Benchmark of the butterfly-tree CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare RUNS_A RUNS_B

Run from the root of a checkout.  With --trace 0 a closed loop with one
client runs the workload's CLI invocations one child at a time, pass after
pass, for about --seconds, and reports the end-to-end metrics, timed in
reference seconds: scaled by a fixed loop timed around the invocations,
which cancels the shared host's changes of speed (see reference.py).  With
--trace 1 it runs the invocations once, then the in-process mirrors of
every workload with spans recorded (see layers.py), and reports the
per-layer metrics.  Every output is checked.  Each run writes a full
result (quartiles, samples, environment, failures) to
.perfbench_out/runs/ and prints a table, then one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import verdict  # noqa: E402
from child import ChildRun, run_cli  # noqa: E402
from reference import REFERENCE_S, reference  # noqa: E402
from stats import summary  # noqa: E402
from workloads import FULL, GOLDEN, SETUP_ARGV, WORKLOADS, Invocation, Sizes, invocations  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mib": "MiB", "setup_s": "s"}
SETUP_PROBES = 12


class BenchError(Exception):
    """The benchmark cannot measure: no program, or set-up output is wrong."""


class Runner:
    """Runs CLI children for one benchmark run and checks their outputs.

    Each distinct output of an invocation (by exit code, CRC-32 and size)
    is kept once in `scratch`; checking waits until timing is over, so the
    parent stays small while children run.  The reference loop runs before
    every invocation, so its timings in `refs` sample the host's speed over
    the same stretch of time as the invocations.
    """

    def __init__(self, root: Path, scratch: Path, invs: list[Invocation]) -> None:
        self.root = root
        self.scratch = scratch
        self.invs = invs
        self.runs: list = []  # (invocation index, ChildRun)
        self.kept: dict = {}  # (index, rc, crc, size) -> (path, ChildRun)
        self.setup: list = []  # ChildRun of each set-up probe
        self.refs: list = []  # (wall, CPU) seconds of each reference loop

    def _keep(self, i: int, argv: tuple[str, ...]) -> ChildRun:
        tmp = self.scratch / "out.tmp"
        self.refs.append(reference())
        result = run_cli(self.root, argv, self.scratch, keep=tmp)
        key = (i, result.returncode, result.crc, result.size)
        if key in self.kept:
            tmp.unlink()
        else:
            self.kept[key] = (tmp.rename(self.scratch / f"out-{len(self.kept)}"), result)
        return result

    def run_pass(self) -> float:
        """Every invocation once; returns the pass's wall seconds as measured."""
        results = [self._keep(i, inv.argv) for i, inv in enumerate(self.invs)]
        self.runs.extend(enumerate(results))
        return sum(r.wall_s for r in results)

    def probe_setup(self) -> None:
        self.setup.append(self._keep(-1, SETUP_ARGV))

    def verdicts(self) -> dict:
        """(index, rc, crc, size) -> (status, reason), each output checked once."""
        import hashlib
        out = {}
        for key, (path, result) in self.kept.items():
            output = path.read_bytes()
            digest = hashlib.sha256(output).hexdigest()
            if key[0] < 0:
                if result.returncode != 0 or (digest, result.size) != GOLDEN[" ".join(SETUP_ARGV)][:2]:
                    raise BenchError(f"set-up invocation failed: exit {result.returncode} "
                                     f"{result.stderr.strip()[:200]}")
                continue
            out[key] = verdict(self.invs[key[0]], result.returncode, digest, result.size,
                               output, result.stderr)
        return out

    def tally(self) -> dict:
        checked = self.verdicts()
        failures: dict = {}
        for i, r in self.runs:
            status, reason = checked[(i, r.returncode, r.crc, r.size)]
            if status != "ok":
                entry = failures.setdefault((i, status, reason),
                                            {"invocation": self.invs[i].label,
                                             "status": status, "reason": reason, "count": 0})
                entry["count"] += 1
        failed = sum(f["count"] for f in failures.values())
        return {"attempted": len(self.runs), "failed": failed,
                "correct": not any(f["status"] == "wrong" for f in failures.values()),
                "failures": list(failures.values())}


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Passes until about `seconds` have run; returns (metrics, samples).

    The host's speed changes by a third or more for seconds to many minutes
    at a time (see reference.py), so each timing is scaled by REFERENCE_S
    over the run's mean reference loop.  A value is the mean over the run:
    `wall_s` and `cpu_s` of a pass, `setup_s` of a probe.  A ratio of means
    weighs every stretch of the run alike on both sides; over five seeds a
    workload, it spread less than a ratio of medians or of lower quartiles
    (README.md).  The quartiles describe the scaled passes and probes; the
    samples also keep every figure as measured, before scaling.
    """
    start = time.perf_counter()
    for _ in range(3):
        runner.probe_setup()
    passes = 0
    while True:
        runner.run_pass()
        runner.probe_setup()
        passes += 1
        elapsed = time.perf_counter() - start
        # Stop at the pass count whose end lies closest to the budget.
        if elapsed + elapsed / passes / 2 >= seconds:
            break
    while len(runner.setup) < SETUP_PROBES:
        runner.probe_setup()
    to_wall = REFERENCE_S / _mean([w for w, _ in runner.refs])
    to_cpu = REFERENCE_S / _mean([c for _, c in runner.refs])
    n = len(runner.invs)
    items = sum(inv.items for inv in runner.invs)
    raw: dict = {"raw_wall_s": [], "raw_cpu_s": [], "peak_rss_mib": []}
    for p in range(0, len(runner.runs), n):
        chunk = [r for _, r in runner.runs[p:p + n]]
        raw["raw_wall_s"].append(sum(r.wall_s for r in chunk))
        raw["raw_cpu_s"].append(sum(r.cpu_s for r in chunk))
        raw["peak_rss_mib"].append(max(r.maxrss_kib for r in chunk) / 1024)
    raw["raw_setup_s"] = [r.wall_s for r in runner.setup]
    samples = {"wall_s": [w * to_wall for w in raw["raw_wall_s"]],
               "cpu_s": [c * to_cpu for c in raw["raw_cpu_s"]],
               "setup_s": [w * to_wall for w in raw["raw_setup_s"]],
               **raw, "reference_s": [w for w, _ in runner.refs],
               "reference_cpu_s": [c for _, c in runner.refs],
               "raw_invocation_wall_s": [[r.wall_s for j, r in runner.runs if j == k]
                                         for k in range(n)]}
    samples["items_per_s"] = [items / w for w in samples["wall_s"]]
    wall = _mean(samples["wall_s"])
    values = {"wall_s": wall, "items_per_s": items / wall, "cpu_s": _mean(samples["cpu_s"]),
              "peak_rss_mib": max(raw["peak_rss_mib"]), "setup_s": _mean(samples["setup_s"])}
    metrics = {name: {"value": values[name], **summary(samples[name])} for name in values}
    return metrics, samples


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def measure_traced(runner: Runner, workload: str, seed: int, sizes: Sizes,
                   spans_path: Path) -> tuple[dict, dict]:
    """One pass of the CLI, then the traced in-process suite."""
    import layers
    from tracing import Tracer
    from workloads import deep_words

    cli_s = runner.run_pass()
    words = deep_words(seed, sizes)
    untraced_s = layers.untraced_seconds(workload, sizes, words)
    tracer = Tracer()
    shared, own = layers.traced_suite(tracer, sizes, words)
    tracer.write(spans_path)
    traced_s = own[workload]["mirror_s"]
    values = dict(shared)
    values["generators.max_qc_bits"] = own[workload]["generators.max_qc_bits"]
    values["cli.overhead.s"] = cli_s - untraced_s
    values["trace.overhead.s"] = traced_s - untraced_s
    counts = values.pop("counts")
    counts["spans"] = len(tracer)
    samples = {"counts": counts, "cli_s": [cli_s], "untraced_mirror_s": [untraced_s],
               "traced_mirror_s": [traced_s]}
    return {name: {"value": v, **summary([v])} for name, v in values.items()}, samples


def environment(root: Path) -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(root), "src_sha256": source_digest(root)}


def git_sha(root: Path):
    """HEAD's commit from .git, or None outside a git checkout."""
    git = root / ".git"
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


def source_digest(root: Path) -> str:
    """SHA-256 over the package's source files, names and contents."""
    import hashlib
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = FULL, root: Path = ROOT, out_dir: Path | None = None) -> dict:
    """One benchmark run; returns the full result (also written to out_dir)."""
    if not (root / "src" / "butterfly_tree" / "cli.py").is_file():
        raise BenchError(f"no butterfly_tree sources under {root / 'src'}")
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))  # for the checks and the traced mirrors
    out_dir = out_dir or root / ".perfbench_out"
    scratch = out_dir / "scratch"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    (out_dir / "runs").mkdir(exist_ok=True)
    runner = Runner(root, scratch, invocations(workload, seed, sizes))
    load_before = os.getloadavg()
    run_cli(root, SETUP_ARGV, scratch, scratch / "warm-up")  # compiles and caches bytecode
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        import layers
        metrics, samples = measure_traced(runner, workload, seed, sizes,
                                          out_dir / "runs" / f"{tag}.spans.csv.gz")
        units = layers.PER_LAYER_UNITS
    else:
        metrics, samples = measure_end_to_end(runner, seconds)
        units = END_TO_END_UNITS
    timing_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally = runner.tally()
    if trace:
        ratio = tally["failed"] / tally["attempted"]
        metrics["fail_ratio"] = {"value": ratio, **summary([ratio])}
    for name, m in metrics.items():
        m["unit"] = units[name]
    result = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
              "environment": {**environment(root), "loadavg_before": load_before,
                              "loadavg_after": os.getloadavg(),
                              "parent_maxrss_mib_while_timing": timing_rss},
              **tally, "metrics": {name: metrics[name] for name in units},
              "samples": samples}
    (out_dir / "runs" / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    shutil.rmtree(scratch, ignore_errors=True)
    return result


def print_result(result: dict) -> None:
    env = result["environment"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"python={env['python']} nproc={env['nproc']} git={env['git_sha'] or '-'} "
          f"load={env['loadavg_before'][0]:.2f}->{env['loadavg_after'][0]:.2f}")
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for f in result["failures"]:
        print(f"#   {f['status']} x{f['count']}: {f['invocation']}: {f['reason']}")
    print(f"{'metric':40} {'value':>12} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for name, m in result["metrics"].items():
        print(f"{name:40} {m['value']:12.6g} {m['median']:12.6g} {m['q1']:12.6g} "
              f"{m['q3']:12.6g} {m['n']:3d}  {m['unit']}")
    if "counts" in result["samples"]:
        print(f"# counts: {json.dumps(result['samples']['counts'])}")
    else:
        raw = {name[4:]: summary(result["samples"][name])["median"]
               for name in ("raw_wall_s", "raw_cpu_s", "raw_setup_s")}
        print(f"# timings above are in reference seconds (REFERENCE_S={REFERENCE_S}); "
              f"reference loop mean {_mean(result['samples']['reference_s']):.6g} s; "
              f"as measured, median pass wall {raw['wall_s']:.6g} s, "
              f"cpu {raw['cpu_s']:.6g} s, set-up {raw['setup_s']:.6g} s")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                                  for name, m in result["metrics"].items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("RUNS_A", "RUNS_B"),
                        help="compare two sets of result files (directories or files)")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare
        return compare(*map(Path, args.compare), ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
