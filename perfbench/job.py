"""One part of one benchmark pass, in a fresh interpreter.

    python3 perfbench/job.py MANIFEST PART MODE

MANIFEST is the JSON file ``run.py`` wrote during set-up, PART indexes the
workload's parts (each part of a pass gets its own interpreter, so every
part starts with the package's caches empty), MODE is 0 (untraced), 1
(traced) or ``setup`` (stop after set-up and report only its time).

The job times ``import cactuspaths`` plus loading its inputs (set-up), then
each operation (the timed region), then reads its peak RSS.  A fixed
calibration loop runs after set-up and after each operation, outside the
timed region, and its times are reported next to the measured ones: they
give the host's speed at that moment.  Output checks and the cache read-out
run last.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

# OEIS A000083: cacti (Husimi trees) on n nodes, summed over k.
A000083 = {10: 1979, 11: 6804, 12: 24118}
# Classes per (n, k), pinned at the seed commit.
CENSUS = {
    10: (106, 657, 859, 326, 31),
    11: (235, 1806, 2985, 1532, 238, 8),
    12: (551, 5026, 10163, 6760, 1524, 94),
}
for _n, _row in CENSUS.items():
    assert sum(_row) == A000083[_n]

CENSUS_N = 11
SWEEP_N, SWEEP_K = 10, 3
VERIFY_ARGS = ["verify", "--n", str(SWEEP_N), "--k", str(SWEEP_K)]
SWEEP_ARGS = ["sweep", "--n", str(SWEEP_N), "--k", str(SWEEP_K), "--invariant", "subtrees"]
MAX_RULES = {"bridge-slide", "chain-straighten", "shrink", "balance"}
MIN_RULES = {"to-triangle", "split"}


def cli(*argv: str):
    """Run the CLI in this process and return its stdout; a nonzero exit
    raises."""
    import cactuspaths.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cactuspaths.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


# Each workload: load(state) adds the parsed inputs to the state (the
# manifest plus the part index) and is timed as set-up, or is None;
# ops(state) -> [(name, thunk)]; check(name, output, state) -> value,
# raising when the output is wrong.


def count_ops(state):
    ops = [(f"pn:{f['name']}", lambda f=f: cli("pn", "--in", f["file"])) for f in state["pn"]]
    ops.append(("profile", lambda: cli("profile", "--in", state["profile"]["file"])))
    return ops


def count_check(name, out, state):
    from cactuspaths import (
        cactus_path_bounds,
        min_cactus_path_count,
        ptc_summation,
        tree_path_count,
    )

    if name == "profile":
        spec = state["profile"]
        prof = json.loads(out)
        kinds = [b["kind"] for b in prof["tree"]["blocks"]]
        assert prof["graph"]["n"] == spec["n"], "profile n"
        assert prof["k"] == spec["k"] == kinds.count("cycle"), "profile k"
        assert len(kinds) == spec["blocks"], "profile block count"
        assert len(prof["tree"]["cut_vertices"]) == spec["cut_vertices"], "profile cut vertices"
        return spec["k"]
    spec = next(f for f in state["pn"] if f"pn:{f['name']}" == name)
    value = int(out)
    n, k, kind = spec["n"], spec["k"], spec["expect"]
    if kind == "ptc":
        assert value == ptc_summation(n, k), "pn != ptc_summation"
    elif kind == "min":
        assert value == min_cactus_path_count(n, k), "pn != min_cactus_path_count"
    elif kind == "tree":
        assert value == tree_path_count(n), "pn != tree_path_count"
    else:
        lo, hi = cactus_path_bounds(n, k)
        assert lo <= value <= hi, "pn outside cactus_path_bounds"
    return str(value)


def census_ops(state):
    import cactuspaths

    return [
        (f"census:{CENSUS_N},{k}", lambda k=k: len(cactuspaths.enumerate_cacti(CENSUS_N, k)))
        for k in range(len(CENSUS[CENSUS_N]))
    ]


def census_check(name, out, state):
    k = int(name.rsplit(",", 1)[1])
    assert out == CENSUS[CENSUS_N][k], f"census ({CENSUS_N}, {k}) has {out} classes"
    state["total"] = state.get("total", 0) + out
    if k == len(CENSUS[CENSUS_N]) - 1:
        assert state["total"] == A000083[CENSUS_N], "census total != A000083"
    return out


def verify_ops(state):
    if state["part"] == 0:
        return [("verify", lambda: cli(*VERIFY_ARGS))]
    return [("sweep", lambda: cli(*SWEEP_ARGS))]


def verify_check(name, out, state):
    import csv

    from cactuspaths import canonical_key, pseudo_friendship

    if name == "verify":
        report = json.loads(out)
        assert report["all_passed"] is True, "verify: not all_passed"
        return len(report["checks"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == CENSUS[SWEEP_N][SWEEP_K], f"sweep: {len(rows)} rows"
    top = [r["canonical_key"] for r in rows if r["is_argmax"] == "true"]
    assert top == [canonical_key(pseudo_friendship(SWEEP_N, SWEEP_K)).hex()], "sweep: argmax is not PFG"
    return len(rows)


def rewrite_load(state):
    from cactuspaths import parse_edge_list

    for g in state["graphs"]:
        g["graph"] = parse_edge_list(Path(g["file"]).read_text())


def rewrite_ops(state):
    import cactuspaths

    ops = []
    for g in state["graphs"]:
        tag = f"{g['n']},{g['k']}"
        ops.append((f"max:{tag}", lambda g=g: cactuspaths.maximize_to_fixpoint(g["graph"])))
        ops.append((f"min:{tag}", lambda g=g: cactuspaths.minimize_to_fixpoint(g["graph"])))
    return ops


def rewrite_check(name, out, state):
    from cactuspaths import (
        cactus_path_count,
        is_end_triangle_cactus,
        min_cactus_path_count,
        ptc_summation,
        validate_cactus,
    )

    final, history = out
    n, k = (int(x) for x in name.split(":")[1].split(","))
    rules, sign = (MAX_RULES, 1) if name.startswith("max") else (MIN_RULES, -1)
    for step in history:
        assert step.rule in rules, f"unexpected rule {step.rule}"
        assert step.delta * sign > 0, f"{step.rule} moved pn the wrong way"
    profile = validate_cactus(final)
    assert (final.n, profile.k) == (n, k), "rewrite left the (n, k) class"
    pn = cactus_path_count(profile)
    if sign > 0:
        assert pn == ptc_summation(n, k), "maximize did not reach ptc_summation"
    else:
        assert pn == min_cactus_path_count(n, k), "minimize did not reach the minimum"
        assert is_end_triangle_cactus(profile), "minimize did not end at an end-triangle cactus"
    return len(history)


WORKLOADS = {
    "count": (None, count_ops, count_check),
    "census": (None, census_ops, census_check),
    "verify": (None, verify_ops, verify_check),
    "rewrite": (rewrite_load, rewrite_ops, rewrite_check),
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that never touches the package:
    the host's speed at that moment."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x + i * i) % 1_000_003
    return time.perf_counter() - t0


def layer_record(tracer, cache) -> dict:
    return {
        "self_s": tracer.self_s,
        "calls": tracer.calls,
        "step_s": tracer.step_s,
        "evals": tracer.evals,
        "swept": tracer.swept,
        "classes": sum(tracer.classes.values()),
        "key_hits": cache["hits"],
        "key_misses": cache["misses"],
    }


def main() -> int:
    manifest_path, part, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    trace = mode == "1"
    manifest = json.loads(Path(manifest_path).read_text())
    load, make_ops, check = WORKLOADS[manifest["workload"]]

    t0 = time.perf_counter()
    import cactuspaths
    import cactuspaths.cli  # noqa: F401  (the CLI is part of what a user imports)

    state = dict(manifest, part=part)
    if load:
        load(state)
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_cal_s": calibrate()}))
        return 0

    src = Path(manifest["src"]).resolve()
    if src not in Path(cactuspaths.__file__).resolve().parents:
        print(f"cactuspaths imported from {cactuspaths.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    wall = 0.0
    cal = [calibrate()]
    for name, thunk in make_ops(state):
        t = time.perf_counter()
        try:
            out, err = thunk(), None
        except Exception as exc:  # any failure of the program counts against it
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        wall += dt
        cal.append(calibrate())
        results.append([name, dt, out, err, cal[-2:]])
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        tracer.enabled = False
    info = getattr(cactuspaths.canonical_key, "cache_info", None)
    cache = {"hits": info().hits, "misses": info().misses} if info else {"hits": 0, "misses": 0}

    ops = []
    for name, dt, out, err, cal_s in results:
        value = None
        if err is None:
            try:
                value = check(name, out, state)
            except Exception as exc:  # a malformed output fails its check too
                err = f"check failed: {type(exc).__name__}: {exc}"
        ops.append({"name": name, "s": dt, "cal_s": cal_s, "ok": err is None, "error": err, "value": value})

    record = {
        "setup_s": setup_s,
        "setup_cal_s": cal[0],
        "wall_s": wall,
        "peak_rss_mib": peak_rss_mib,
        "key_misses": cache["misses"],
        "calibration_s": min(cal),
        "ops": ops,
        "layers": layer_record(tracer, cache) if tracer else None,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
