"""Benchmark for the cactuspaths package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there.  Set-up writes the seeded inputs under ``perfbench/.work/``.
A run first repeats the set-up alone (``SETUP_SAMPLES`` times, which also
warms the file cache and compiles the bytecode), then makes passes (at
least two) for as long as that ends it nearest to ``--seconds``.  A pass
is one go through the workload, each part of it in a fresh interpreter
(``perfbench/job.py``), so every pass starts with the package's caches
empty, as a CLI call does.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are one JSON diagnostic per pass (per-operation times
and values, the calibration loop times next to them) and one for the machine.

Workloads (single process, single thread, default CLI flags):

count    ``pn --in F`` on PTC(1001, 500), a random cactus (1600, 400), a
         random tree (1200), PFG(2001, 1000) and an end-triangle cactus
         over a random tree (1000, 200); ``profile --in`` on a 50,001-vertex
         triangle chain.  Quadratic counter plus large-graph parsing and
         validation.  The random cactus gets a new relabeling in every pass.
census   ``enumerate_cacti(11, k)`` for every k, from cold: canonical keys.
verify   ``verify --n 10 --k 3``, then ``sweep --n 10 --k 3 --invariant
         subtrees``, each part in its own interpreter: subtree counting.
rewrite  ``maximize_to_fixpoint`` and ``minimize_to_fixpoint`` on random
         cacti (160, 30) and (120, 40): every step builds a new graph.

End-to-end metrics (``--trace 0``).  On a shared host the machine's speed
drifts: on a 2-vCPU VM the same operation took up to 1.8x its best time, in
episodes lasting from seconds to minutes, which no run length averages out.
So ``job.py`` times a fixed calibration loop after set-up and after each
operation, and each measured time is scaled by ``CAL_REF_S`` over the
loop's time next to it (for an operation, the mean of the loops before and
after it): times are reported in seconds at the speed at which the loop
takes ``CAL_REF_S``.  The raw times are in the per-pass diagnostic lines.
``wall_s`` is the time of the operations of one pass, each operation at its
median over the run's passes; ``setup_s`` (import plus input loading,
summed over the parts of a pass) is the median over the set-up-only samples
and the passes; ``peak_rss_mib`` (largest part) the median over the passes.
``--trace 1`` makes two untraced passes and two traced ones, in turn, and
reports per-layer self times (medians of the two), counts (which must
agree between the two, a check that no cache leaks between passes) and
``trace.overhead_s`` (traced minus untraced pass time, both scaled to the
reference speed as ``wall_s`` is).

An operation fails on an exception, a nonzero CLI exit or an output that
fails its check; a part whose interpreter dies counts as one failed
operation.  Checks run outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from tracer import RULES

HERE = Path(__file__).resolve().parent
JOB = HERE / "job.py"
RUN_LIMIT_S = 170  # a run must end well within 180 s
MIN_PASSES = 2
# About the calibration loop's best time on an Intel Xeon vCPU at 2.1 GHz
# under CPython 3.11: end-to-end times read as seconds on that machine at
# full speed.
CAL_REF_S = 0.08
SETUP_SAMPLES = 6


def write_graph(path: Path, graph, rng: random.Random, relabel: bool = True) -> str:
    n, edges = graph
    path.write_text(inputs.edge_list_text(n, edges, rng, relabel))
    return str(path)


def setup_count(seed: int, work: Path):
    def rng(tag):
        return random.Random(f"{seed}:count:{tag}")

    cactus = inputs.random_cactus(1600, 400, rng("cactus"))
    files = []
    for name, expect, n, k, graph in (
        ("ptc", "ptc", 1001, 500, inputs.ptc(1001, 500)),
        ("cactus", "bounds", 1600, 400, cactus),
        ("tree", "tree", 1200, 0, inputs.random_tree(1200, rng("tree"))),
        ("pfg", "min", 2001, 1000, inputs.pfg(2001, 1000)),
        ("end_triangle", "min", 1000, 200, inputs.end_triangle_cactus(600, 200, rng("end"))),
    ):
        file = write_graph(work / f"{name}.txt", graph, rng(f"{name}:labels"))
        files.append({"name": name, "file": file, "n": n, "k": k, "expect": expect})
    # Large-graph validation costs n^2 bits of adjacency masks at the seed
    # commit: a 100,001-vertex chain took ~6 s and ~800 MiB, too much for a
    # pass that must repeat within a 30 s run, so the chain has 50,001.
    # Natural labels keep the masks at n^2/2 bits (random labels cost a
    # third more time and memory).
    triangles = 25_000
    chain = inputs.cycle_chain([3] * triangles)
    profile = {
        "file": write_graph(work / "chain.txt", chain, rng("chain:order"), relabel=False),
        "n": chain[0],
        "k": triangles,
        "blocks": triangles,
        "cut_vertices": triangles - 1,
    }

    def relabel(index: int) -> None:
        """A fresh labeling of the random cactus in every pass, so equal
        counts across passes check relabeling invariance."""
        write_graph(work / "cactus.txt", cactus, rng(f"cactus:pass{index}"))

    return {"pn": files, "profile": profile}, relabel


def setup_rewrite(seed: int, work: Path):
    graphs = []
    for n, k in ((160, 30), (120, 40)):
        rng = random.Random(f"{seed}:rewrite:{n},{k}")
        file = write_graph(work / f"rewrite_{n}_{k}.txt", inputs.random_cactus(n, k, rng), rng)
        graphs.append({"n": n, "k": k, "file": file})
    return {"graphs": graphs}, None


def setup_fixed(seed: int, work: Path):
    """census and verify take (n, k) only; the seed does not enter."""
    return {}, None


# workload -> (set-up returning (manifest entries, per-pass hook or None),
#              number of parts, each in its own interpreter)
WORKLOADS = {
    "count": (setup_count, 1),
    "census": (setup_fixed, 1),
    "verify": (setup_fixed, 2),
    "rewrite": (setup_rewrite, 1),
}


def run_job(manifest_path: Path, part: int, mode: str, timeout: float, env: dict) -> dict | None:
    try:
        proc = subprocess.run(
            [sys.executable, str(JOB), str(manifest_path), str(part), mode],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
        )
    except subprocess.TimeoutExpired:
        print(f"part {part} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"part {part} exited {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_ref(seconds: float, cal_s: float) -> float:
    """``seconds`` measured next to a calibration loop that took ``cal_s``,
    scaled to the reference speed."""
    return seconds * CAL_REF_S / cal_s


def run_pass(manifest_path, parts, trace, deadline, env) -> dict:
    record = {"traced": trace, "wall_s": 0.0, "wall_ref_s": 0.0, "setup_s": 0.0, "setup_ref_s": 0.0, "peak_rss_mib": 0.0,
              "calibration_s": None, "ops": [], "key_misses": [], "layers": [], "crashed": 0}
    for part in range(parts):
        res = run_job(manifest_path, part, "1" if trace else "0", max(1.0, deadline - time.monotonic()), env)
        if res is None:
            record["crashed"] += 1
            continue
        for key in ("wall_s", "setup_s"):
            record[key] += res[key]
        record["calibration_s"] = min(record["calibration_s"] or res["calibration_s"], res["calibration_s"])
        record["setup_ref_s"] += at_ref(res["setup_s"], res["setup_cal_s"])
        for op in res["ops"]:
            op["ref_s"] = at_ref(op["s"], statistics.mean(op["cal_s"]))
            record["wall_ref_s"] += op["ref_s"]
        record["peak_rss_mib"] = max(record["peak_rss_mib"], res["peak_rss_mib"])
        record["ops"].extend(res["ops"])
        record["key_misses"].append(res["key_misses"])
        if res["layers"]:
            record["layers"].append(res["layers"])
    return record


def merge_layers(parts: list[dict]) -> dict:
    """Sum the per-part layer records of one pass."""
    total = {"self_s": {}, "calls": {}, "step_s": [], "evals": 0, "swept": 0,
             "classes": 0, "key_hits": 0, "key_misses": 0}
    for rec in parts:
        for key in ("self_s", "calls"):
            for name, v in rec[key].items():
                total[key][name] = total[key].get(name, 0) + v
        total["step_s"].extend(rec["step_s"])
        for key in ("evals", "swept", "classes", "key_hits", "key_misses"):
            total[key] += rec[key]
    return total


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[dict], overhead_s: float) -> tuple[dict, dict]:
    """Per-layer metrics: self times are medians over the traced passes;
    counts come from the first and are returned apart for the equality
    check."""
    recs = [merge_layers(p["layers"]) for p in traced]
    first = recs[0]
    calls = first["calls"]
    steps = sorted(s for r in recs for s in r["step_s"])

    counts = {
        "graphs.validate_cactus.calls": calls.get("graphs.validate_cactus", 0),
        "counting.cactus_path_count.calls": calls.get("counting.cactus_path_count", 0),
        "census.canonical_key.misses": first["key_misses"],
        "census.canonical_key.hits": first["key_hits"],
        "census.classes": first["classes"],
        "indices.subtree_count.calls": calls.get("indices.subtree_count", 0),
        "indices.wiener.calls": calls.get("indices.wiener", 0),
    }
    counts.update({f"transforms.{rule}.calls": calls.get(f"transforms.{rule}", 0) for rule in RULES})
    rule_steps = sum(counts[f"transforms.{rule}.calls"] for rule in RULES)

    metrics = {}
    for name in (
        "graphs.parse_edge_list", "graphs.block_cut_tree", "graphs.is_connected",
        "graphs.validate_cactus", "counting.cactus_path_count", "census.enumerate_cacti",
        "census.canonical_key", "indices.subtree_count", "indices.wiener",
        "extremal.extremal_sweep", "extremal.sweep_rows", "extremal.verify_theorems",
        "transforms.maximize_to_fixpoint", "transforms.minimize_to_fixpoint", "cli.main",
    ):
        metrics[f"{name}.s"] = (statistics.median(r["self_s"].get(name, 0.0) for r in recs), "s")
    metrics.update({name: (v, "count") for name, v in counts.items()})
    metrics["graphs.validate_cactus.calls_per_step"] = (
        ratio(counts["graphs.validate_cactus.calls"], rule_steps), "calls/step")
    metrics["census.classes_per_key"] = (ratio(first["classes"], first["key_misses"]), "classes/key")
    metrics["extremal.evals_per_class"] = (ratio(first["evals"], first["swept"]), "evals/class")
    metrics["transforms.step_ms.p50"] = (1e3 * statistics.median(steps) if steps else 0.0, "ms")
    metrics["transforms.step_ms.p98"] = (
        1e3 * statistics.quantiles(steps, n=50)[-1] if len(steps) > 1 else 0.0, "ms")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics, counts


def machine() -> dict:
    sha = "unknown"
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            target = Path(".git") / ref[5:]
            sha = target.read_text().strip() if target.is_file() else ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": sha}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    src = Path("src").resolve()
    if not (src / "cactuspaths" / "__init__.py").is_file():
        print("run from the root of a cactuspaths checkout: src/cactuspaths not found", file=sys.stderr)
        return 2

    make_inputs, parts = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = {"workload": args.workload, "seed": args.seed, "src": str(src)}
    entries, before_pass = make_inputs(args.seed, work)
    manifest.update(entries)
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    env = dict(os.environ, PYTHONPATH=str(src))
    # Set-up is timed with the package's bytecode cached, as a user's
    # repeated CLI calls find it; the first set-up sample writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    print(json.dumps({"machine": machine()}))
    t0 = time.monotonic()
    setup_samples: list[float] = []
    crashed = 0
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        res = [run_job(manifest_path, part, "setup", max(1.0, deadline - time.monotonic()), env)
               for part in range(parts)]
        if None in res:
            crashed += 1
            break
        setup_samples.append(sum(at_ref(r["setup_s"], r["setup_cal_s"]) for r in res))
    print(json.dumps({"setup_samples": setup_samples}))
    passes: list[dict] = []
    plan = [False, True, False, True] if args.trace else None
    while True:
        trace = plan[len(passes)] if plan else False
        p0 = time.monotonic()
        if before_pass:
            before_pass(len(passes))
        rec = run_pass(manifest_path, parts, trace, deadline, env)
        rec["pass_s"] = time.monotonic() - p0
        passes.append(rec)
        print(json.dumps({"pass": len(passes) - 1, **{k: v for k, v in rec.items() if k != "layers"}}))
        elapsed = time.monotonic() - t0
        if crashed or rec["crashed"] or time.monotonic() > deadline - 1:
            break
        if plan:
            if len(passes) == len(plan):
                break
        elif len(passes) >= MIN_PASSES and elapsed + statistics.mean(p["pass_s"] for p in passes) / 2 > args.seconds:
            break

    attempted = crashed + sum(len(p["ops"]) + p["crashed"] for p in passes)
    failed = crashed + sum(p["crashed"] + sum(not op["ok"] for op in p["ops"]) for p in passes)
    self_tests = []
    # Every pass starts from empty caches, so each does the same key work.
    self_tests.append(len({tuple(p["key_misses"]) for p in passes}) == 1)
    if args.workload == "count":
        values = {op["value"] for p in passes for op in p["ops"] if op["name"] == "pn:cactus" and op["ok"]}
        if len(values) > 1:
            failed += 1
            print(f"relabeled cactus counts differ across passes: {sorted(values)}", file=sys.stderr)

    complete = [p for p in passes if not p["crashed"]]
    untraced = [p for p in complete if not p["traced"]]
    traced = [p for p in complete if p["traced"]]
    if not untraced or (args.trace and len(traced) < 2):
        print("no complete pass to measure", file=sys.stderr)
        return 1
    if args.trace:
        overhead = (statistics.median(p["wall_ref_s"] for p in traced)
                    - statistics.median(p["wall_ref_s"] for p in untraced))
        metrics, counts = layer_metrics(traced, overhead)
        _, counts2 = layer_metrics(traced[1:], overhead)
        self_tests.append(counts == counts2)
    else:
        op_ref_s: dict[str, list[float]] = {}
        for p in untraced:
            for op in p["ops"]:
                op_ref_s.setdefault(op["name"], []).append(op["ref_s"])
        metrics = {
            "wall_s": (sum(statistics.median(v) for v in op_ref_s.values()), "s"),
            "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in untraced), "MiB"),
            "setup_s": (statistics.median(setup_samples + [p["setup_ref_s"] for p in untraced]), "s"),
        }
    if not all(self_tests):
        print(f"self-test failed: {self_tests}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0 and all(self_tests),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
