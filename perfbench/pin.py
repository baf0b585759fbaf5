"""Record the pinned reference outputs that run.py checks against.

Usage: ``python3 perfbench/pin.py WORKLOAD SEED [SEED ...]``

Each seed's output is cross-checked first; an output that fails a
cross-check is not pinned.  Existing seeds in the reference file are
kept unless re-pinned.  Pin only at a commit whose outputs are trusted.
"""

import json
import sys

from run import REFERENCE, SRC, WORKLOADS


def main(argv) -> int:
    name, seeds = argv[0], [int(s) for s in argv[1:]]
    wl = WORKLOADS[name]
    sys.path.insert(0, str(SRC))
    path = REFERENCE / f"{name}.json"
    pinned = json.loads(path.read_text()) if path.exists() else {}
    for seed in seeds:
        inputs = wl.inputs(seed)
        output = wl.call(inputs)
        problems = wl.cross_check(seed, output, inputs)
        if problems:
            print(f"{name} seed {seed}: not pinned: {problems}", file=sys.stderr)
            return 1
        pinned[str(seed)] = wl.pin(output)
        print(f"{name} seed {seed}: pinned", flush=True)
    REFERENCE.mkdir(exist_ok=True)
    ordered = dict(sorted(pinned.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
