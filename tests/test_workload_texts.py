"""The weyl_q benchmark's operator texts are all flat.

``perfbench/workloads.py`` writes the texts that the weyl_q workload
parses.  ``opparser.parse_operator`` reads flat text by one scanning pass,
``_scan``, and parses anything else by the full grammar and the per-atom
evaluator.  This test loads the workload file by path, draws a seeded
sample of its texts from every stratum, and checks that ``_scan`` takes
each one and gives the per-atom reference's core with its key order.
"""

import random

from weylops.opparser import _scan, parse
from conftest import load_workloads, make_ring, reference_evaluate


def _texts(spec):
    yield spec["a"]
    yield spec["b"]
    yield spec["g"]
    if "c" in spec:
        yield spec["c"]
        yield from spec["twist"]


def _keys(core):
    return [(alpha, list(f)) for alpha, f in core[0].items()]


def test_every_weyl_q_stratum_is_scanned():
    workload = load_workloads().WeylQ()
    ring = make_ring(0, 3, workload.names)
    assert set(workload.pool_sizes) == set(workload.slots)
    for stratum in workload.pool_sizes:
        rng = random.Random(f"weylops-flat-texts:{stratum}")
        for k in range(40):
            for text in _texts(workload.make_spec(stratum, rng, k)):
                got = _scan(text, ring)
                assert got is not None, text
                want = reference_evaluate(parse(text), ring)
                assert got == want and _keys(got) == _keys(want), text
