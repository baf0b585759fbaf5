"""Benchmark of the qwalk laboratory: seeded workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run is one fresh process.  It

1. times set-up ``SETUPS`` times, each a fresh process that starts Python
   and imports qwalk, and reports the median as ``setup_s``;
2. calls the workload's entry point back to back with tracing off, and
   reports the median call as ``run_s`` and the process's ``ru_maxrss`` as
   ``peak_rss_mb``.  The number of calls is ``--seconds`` over the
   workload's nominal call time (at least one), so it does not depend on
   how fast the machine or the program is: both sides of a comparison make
   the same calls;
3. with ``--trace 1``, repeats the same number of calls under the span
   tracer (spans.py) and reports the per-layer metrics instead;
4. checks every output outside the timed region (workloads.py): against
   the pinned reference when one exists for the seed, and through
   cross-checks that hold on any seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A call fails when
it raises, exits with an unexpected code, or its output fails a check;
``failed / attempted`` is the run's fail ratio.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"          # span dumps; not committed
REFERENCE = HERE / "reference"
SETUPS = 3

sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def time_setup() -> float:
    # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms, which
    # would quantize a 0.2 s set-up; the child only imports qwalk
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import qwalk"
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_calls(call, inputs, count: int):
    """Call ``count`` times back to back.

    Returns (wall time per call, output or raised exception per call).
    """
    times, outputs = [], []
    for _ in range(count):
        t0 = time.perf_counter()
        try:
            out = call(inputs)
        except Exception as exc:  # a failed call is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = exc
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return times, outputs


def verify(name: str, seed: int, inputs, outputs) -> list[list[str]]:
    """Problems per call: raised, differs from the first call, or fails a check."""
    wl = WORKLOADS[name]
    ref_path = REFERENCE / f"{name}.json"
    pinned = json.loads(ref_path.read_text()).get(str(seed)) if ref_path.exists() else None
    first = outputs[0]
    if isinstance(first, Exception):
        shared = [f"raised {first!r}"]
    else:
        try:
            shared = wl.cross_check(seed, first, inputs)
            if pinned is not None:
                shared += wl.check_pinned(first, pinned)
        except Exception as exc:  # a malformed output is a failed check
            traceback.print_exc(file=sys.stderr)
            shared = [f"check raised {exc!r}"]
    per_call = []
    for out in outputs:
        if isinstance(out, Exception):
            per_call.append([f"raised {out!r}"])
        elif out != first:
            per_call.append(["output differs from the run's first call"])
        else:
            per_call.append(list(shared))
    return per_call


def per_layer(tracer: Tracer, calls: int, overhead_s: float) -> dict:
    """Per-layer metrics, per entry-point call, from the traced calls' spans."""
    rows = tracer.summary()

    def total(*names):
        return sum(rows[n]["total_s"] for n in names if n in rows) / calls

    def ncalls(name):
        return rows[name]["calls"] / calls if name in rows else 0.0

    def counted(name):
        return rows[name]["count"] / calls if name in rows else 0.0

    def self_s(layer):
        return sum(r["self_s"] for n, r in rows.items() if n.startswith(layer + ".")) / calls

    def per(x, y, scale=1.0):
        return x / y * scale if y else 0.0

    steps, vertices = counted("walks.run_walk"), counted("trees.random_homomorphism")
    homs = ncalls("trees.random_homomorphism")
    walk_s, hom_s = total("walks.run_walk"), total("trees.random_homomorphism")
    values = {
        "rng.streams_opened": ncalls("rng.stream"),
        "rng.open_s": total("rng.stream"),
        "rng.words_drawn": counted("rng.draw"),
        "rng.draw_s": total("rng.draw"),
        # a tree of k vertices consumes k - 1 list entries; a walk, one per step
        "rng.word_use_ratio": per(steps + vertices - homs, tracer.list_words / calls),
        "graph.gen_s": total("graph.gen_gnp", "graph.gen_complete",
                             "graph.gen_two_clique_bridge"),
        "graph.build_s": total("graph.build_graph"),
        "graph.build_calls": ncalls("graph.build_graph"),
        "graph.dense_s": total("graph.Graph.adjacency_dense"),
        "graph.dense_builds": ncalls("graph.Graph.adjacency_dense"),
        "walks.models": ncalls("walks.ListModel.__init__"),
        "walks.model_init_s": total("walks.ListModel.__init__"),
        "walks.steps": steps,
        "walks.walk_s": walk_s,
        "walks.ns_per_step": per(walk_s, steps, 1e9),
        "walks.subgraph_s": total("walks.walk_subgraph"),
        "trees.vertices": vertices,
        "trees.hom_s": hom_s,
        "trees.ns_per_vertex": per(hom_s, vertices, 1e9),
        "trees.image_s": total("trees.image_subgraph"),
        "certify.sampler_s": total("certify.discrepancy_sampled"),
        "certify.sampler_pairs": counted("certify.discrepancy_sampled"),
        "certify.self_s": self_s("certify"),
        "experiments.self_s": self_s("experiments"),
        "cli.self_s": self_s("cli"),
        "trace.overhead_s": overhead_s,
    }
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "qwalk" / "__init__.py").is_file():
        print(f"error: no qwalk sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    setup_s = time_setup()
    sys.path.insert(0, str(SRC))
    import qwalk
    if Path(qwalk.__file__).resolve().parent != SRC / "qwalk":
        print(f"error: imported qwalk from {qwalk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    inputs = wl.inputs(args.seed)
    times, outputs = timed_calls(wl.call, inputs, max(1, round(args.seconds / wl.call_s)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_s = statistics.median(times)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    broken_trace = []
    if args.trace:
        tracer = Tracer()
        with tracer.instrument(qwalk):
            traced_times, traced_outputs = timed_calls(wl.call, inputs, len(times))
        broken_trace = tracer.validate()
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json.gz")
        outputs += traced_outputs
        values = per_layer(tracer, len(traced_times), statistics.median(traced_times) - run_s)
    else:
        values = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    problems = verify(args.workload, args.seed, inputs, outputs)
    for found in problems[len(times):]:  # a broken span tree voids the traced calls
        found.extend(f"broken span tree: {p}" for p in broken_trace[:5])
    failed = sum(1 for p in problems if p)
    for i, found in enumerate(problems):
        for p in found[:10]:
            print(f"call {i}: {p}", file=sys.stderr)

    print(f"{args.workload} seed={args.seed}: {len(times)} call(s), "
          f"fail_ratio={failed / len(problems)} ({failed}/{len(problems)})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(problems),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
