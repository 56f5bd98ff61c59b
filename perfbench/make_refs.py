"""Regenerate the reference outputs in perfbench/refs/.

    python3 perfbench/make_refs.py [--seeds 0-10] [--workload NAME ...]

Runs every input of each workload's pool once at benchmark size, checks it
without a reference, and stores `summary` (the NMSE traces, SE rows or CSV
numbers) per seed.  Regenerate only when a change is meant to alter the
numbers, and say so in the change.
"""

import argparse
import json
import os
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-10", help="inclusive range, e.g. 0-10")
    parser.add_argument("--workload", nargs="*")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    run.load_package()
    import workloads

    os.makedirs(run.REFS_DIR, exist_ok=True)
    for name in args.workload or workloads.WORKLOAD_NAMES:
        wl = workloads.make_workload(name, run.WORK_DIR)
        refs = {}
        for seed in range(lo, hi + 1):
            per_input = []
            for inp in wl.make_inputs(seed):
                if hasattr(wl, "prepare"):
                    wl.prepare(inp)
                result = wl.run(inp)
                problem = wl.check(inp, result)
                if problem is not None:
                    print(f"error: {name} seed {seed}: {problem}", file=sys.stderr)
                    return 1
                per_input.append([float(f"{v:.12g}") for v in wl.summary(result)])
            refs[str(seed)] = per_input
            print(f"{name} seed {seed}: {len(per_input)} inputs", flush=True)
        with open(os.path.join(run.REFS_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(refs, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
