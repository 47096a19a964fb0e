#!/usr/bin/env python3
"""Pin the answer of every pool entry: writes ``pins/<workload>.json``.

    python3 perfbench/pin.py [--workload NAME]

Run from the root of a checkout whose answers are known to be right: the
benchmark fails every later run whose rendered answer differs from the pin.
Repinning is a change to the benchmark, never part of a change to the
package.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import worker


def pin(W, wl):
    ctx = wl.setup(W)
    pool = wl.make_pool()
    pins = {}
    for stratum, specs in pool.items():  # artinian: builds before queries
        digests = []
        for spec in specs:
            obj = wl.prepare(ctx, stratum, spec)
            rendered, _kept = wl.run(ctx, stratum, obj)
            digests.append(worker.digest(rendered))
        pins[stratum] = digests
    return pins


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    W = worker.import_package()
    names = [args.workload] if args.workload else sorted(workloads.WORKLOADS)
    for name in names:
        t0 = time.perf_counter()
        pins = pin(W, workloads.WORKLOADS[name])
        worker.PINS.mkdir(exist_ok=True)
        with open(worker.PINS / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=0)
            fh.write("\n")
        print(f"{name}: {sum(map(len, pins.values()))} answers pinned in "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
