"""Self-test of the benchmark harness on a tiny instance.

usage: python3 perfbench/selftest.py      (from the root of a checkout)

Runs the untraced and the traced path of run.py on a generated 60x300
instance shaped like G type 1 and checks that every metric BENCHMARK.json
names appears with its unit and no other does, that the ratios printed
beside the per-layer metrics are all defined there, that the solves pass the
output check, that the traced self times add up to the traced solve time,
that wrapping a name that no longer exists is survived, and that the check
rejects broken results.  Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

import instances
import run
import spans

TINY = dataclasses.replace(
    instances.WORKLOADS["g1-tight"], name="selftest-tiny", rows=60, cols=300,
    density=0.1, max_iterations=2,
)

# Defined on the tiny instance, which has an LP and runs the search.
RATIOS = {"relaxation.bound_lp_ratio", "localsearch.swap_scan.accept_ratio",
          "reduction.core_fraction", "pathrelink.update.accept_ratio"}


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def declared(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def reported(line):
    return {name: v["unit"] for name, v in line["metrics"].items()}


def test_untraced():
    line, record = run.measure(TINY, seed=3, seconds=0.1, trace=False)
    expect(line["correct"] and line["failed"] == 0, f"untraced run failed: {record['attempts']}")
    expect(reported(line) == declared("end_to_end"),
           f"end-to-end metrics {reported(line)} != {declared('end_to_end')}")
    for key in ("cpu", "nproc", "python", "numpy", "scipy", "git_revision"):
        expect(key in record["machine"], f"machine record lacks {key}")


def test_traced():
    line, record = run.measure(TINY, seed=3, seconds=0.1, trace=True)
    expect(line["correct"], f"traced run failed: {record['attempts']}")
    expect(reported(line) == declared("per_layer"),
           "per-layer metrics differ from BENCHMARK.json: "
           f"missing {sorted(set(declared('per_layer')) - set(reported(line)))}, "
           f"extra {sorted(set(reported(line)) - set(declared('per_layer')))}")
    expect(set(record["ratios"]) == RATIOS, f"ratios {sorted(record['ratios'])}")
    trace = record["attempts"][-1]["record"]["trace"]
    expect(not trace["missing"], f"targets missing at this revision: {trace['missing']}")
    expect(abs(trace["solve_span_s"] - trace["solve_self_sum_s"]) < 1e-6,
           "self times under driver.solve do not sum to its duration")
    # judge() compares the traced solve with the untraced one of the same seed
    expect(not record["attempts"][-1]["errors"], "tracing changed the result")


def test_missing_targets():
    rec = spans.Recorder("selftest")
    rec.install(targets=(("model", "no_such_function"),
                         ("localsearch", "SearchState.no_such_method"),
                         ("no_such_module", "f")))
    expect(len(rec.missing) == 3 and not rec.wrapped and rec.layers() == {},
           f"missing targets not reported: {rec.missing}")


def test_check_rejects():
    inst_path, ref = instances.ensure_instance(TINY, 3, run.CACHE_DIR)
    p = instances.parse_instance(inst_path, TINY.fmt)
    rec, err = run.run_child(TINY, inst_path, 3, timeout=60)
    expect(err is None, err)
    good = rec["result"]
    expect(instances.check_result(p, good, ref["lp"]) == [], "sound result rejected")
    sel = good["selected"]
    broken = {
        "dropped column": dict(good, selected=sel[1:]),
        "wrong objective": dict(good, objective=good["objective"] + 1),
        "bound above LP": dict(good, lower_bound=ref["lp"] + 1.0),
        "infeasible flag": dict(good, feasible=False),
    }
    mate = next(int(j) for j in np.flatnonzero(p.block_of == p.block_of[sel[0]])
                if j not in sel)
    broken["block over cap"] = dict(good, selected=sorted(sel + [mate]),
                                    objective=good["objective"] + int(p.cost[mate]))
    for what, res in broken.items():
        expect(instances.check_result(p, res, ref["lp"]), f"check accepted a {what}")


def main():
    test_untraced()
    test_traced()
    test_missing_targets()
    test_check_rejects()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
