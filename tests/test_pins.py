"""Answers of the benchmark's jobs digest to their pins.

``perfbench/pins`` fixes the digest of every pool entry's rendered answer,
taken from the JSON text of the answer (``perfbench/worker.py``,
``digest``).  This file runs one round of jobs of each workload in this
process and checks each digest against its pin, so that a change to the
rendered payloads (their Python types, their key order) that would change
the text is caught by the tests, not only by a benchmark run.

artinian runs its first seed-1 round.  The other workloads draw each
stratum's pool from one seeded generator, so reaching entry k means
drawing the k before it, and their seeded entries sit up to 8,192 deep,
which takes seconds to draw.  Their round is therefore the slots of one
round filled from the front of each stratum's pool: the j-th slot of a
stratum takes entry j.
"""

import hashlib
import json
import random

import pytest

import weylops
import weylops.cli  # noqa: F401  (the worker's set-up: loads weylops.render)
from conftest import PERFBENCH, load_workloads

WORKLOADS = load_workloads()


def digest(rendered) -> str:
    """The digest of ``perfbench/worker.py``."""
    text = json.dumps(rendered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def one_round(wl):
    if wl.slots:
        return [[s, wl.slots[:i].count(s)] for i, s in enumerate(wl.slots)]
    return wl.rounds(1)[0]


def pool_specs(wl, jobs):
    """The pool entries the jobs use, as the worker reads them: drawn as
    ``make_pool`` draws them, then through JSON."""
    depth = {}
    for stratum, idx in jobs:
        depth[stratum] = max(depth.get(stratum, 0), idx + 1)
    pool = {}
    for stratum, n in depth.items():
        rng = random.Random(f"{WORKLOADS.POOL_SEED}:{wl.name}:{stratum}")
        pool[stratum] = [wl.make_spec(stratum, rng, k) for k in range(n)]
    return json.loads(json.dumps(pool))


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_rendered_answers_match_their_pins(name):
    wl = WORKLOADS.WORKLOADS[name]
    pins = json.loads((PERFBENCH / "pins" / f"{name}.json").read_text(encoding="utf-8"))
    jobs = one_round(wl)
    pool = pool_specs(wl, jobs)
    ctx = wl.setup(weylops)
    assert set(stratum for stratum, _ in jobs) == set(wl.pool_sizes)
    for stratum, idx in jobs:
        rendered, _ = wl.run(ctx, stratum, wl.prepare(ctx, stratum, pool[stratum][idx]))
        assert digest(rendered) == pins[stratum][idx], f"{stratum}[{idx}]"
