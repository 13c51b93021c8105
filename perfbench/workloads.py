"""Seeded workload generator for the campaign benchmark.

Every workload is a pure function of ``(name, seed)``: the seed picks the
scenario seeds (hence every fault draw) and, for ``serve-mixed``, the
order of the request stream.  The shapes -- models, variants, grid
sizes, image counts -- are fixed per workload so that run cost does not
swing from seed to seed; only which bits flip does.  The program under
test receives nothing but the generated suite payloads.
"""

from __future__ import annotations

import random

# The paper's rate grid (repro.experiments.paper_fault_rates at two
# points per decade), spelled out so the generator imports nothing from
# the program under test.
PAPER_RATES = (1e-07, 3.1622776601683795e-07, 1e-06, 3.1622776601683795e-06,
               1e-05, 3.1622776601683795e-05, 0.0001)

WORKLOADS = ("lenet-2w", "lenet-shards", "serve-mixed")

# One sentence per workload on why it is in the benchmark; BENCHMARK.json
# carries the same text.
WHY = {
    "lenet-2w": "Mixed LeNet-5 suite at workers 2, FT-ClipAct included: the "
    "only workload through the process pool and the batched/adaptive "
    "kernel, and it shows BLAS oversubscription on two CPUs.",
    "lenet-shards": "Many cheap LeNet-5 cells run as 2 shards plus "
    "merge_run: per-cell checkpoint rewrites, segments, merge and "
    "sample/inject cost dominate, not the forward.",
    "serve-mixed": "A real repro serve daemon fed a closed-loop stream of "
    "small suites, half of them repeats: memo hits and misses measured "
    "as separate latency classes.",
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}")


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def lenet_2w(seed: int) -> dict:
    """A mixed LeNet-5 suite that exercises every cell-task kind."""
    rng = _rng("lenet-2w", seed)
    weight = [
        {"name": f"weight-{variant}", "variant": variant, "seed": _seed(rng)}
        for variant in ("unprotected", "ecc", "tmr", "relu6", "ftclipact")
    ]
    return {
        "name": "lenet-2w",
        "workers": 2,
        "defaults": {
            "model": "lenet5",
            "rates": list(PAPER_RATES),
            "trials": 2,
            "eval_images": 256,
        },
        "scenarios": weight + [
            {"name": "int8", "campaign": "quantized", "seed": _seed(rng)},
            {"name": "burst", "fault_model": {"name": "burst", "burst_length": 8},
             "seed": _seed(rng)},
            {"name": "activation", "campaign": "activation", "seed": _seed(rng)},
            {"name": "adaptive", "mode": "adaptive", "trials": 16,
             "batch_k": 4, "ci_halfwidth": 0.05, "seed": _seed(rng)},
        ],
    }


def lenet_shards(seed: int) -> dict:
    """Many cheap LeNet-5 cells over 32 images, for the sharded path."""
    rng = _rng("lenet-shards", seed)
    weight = [
        {"name": f"weight-{variant}", "variant": variant, "seed": _seed(rng)}
        for variant in ("unprotected", "ecc", "tmr", "dmr")
    ]
    return {
        "name": "lenet-shards",
        "workers": 1,
        "defaults": {
            "model": "lenet5",
            "rates": list(PAPER_RATES),
            "trials": 10,
            "eval_images": 32,
        },
        "scenarios": weight + [
            {"name": "int8", "campaign": "quantized", "seed": _seed(rng)},
            {"name": "stuck-at-1", "fault_model": {"name": "stuck_at", "value": 1},
             "seed": _seed(rng)},
        ],
    }


SERVE_MISSES = 120
SERVE_HITS = 120


def _serve_suite(index: int, seed: int) -> dict:
    return {
        "name": f"req-{index:03d}",
        "defaults": {"model": "lenet5", "eval_images": 64, "seed": seed},
        "scenarios": [
            {"name": "weight", "rates": [1e-05, 0.0001], "trials": 3},
        ],
    }


def serve_stream(seed: int) -> list[dict]:
    """The closed-loop request stream: distinct suites and repeats.

    Exactly ``SERVE_MISSES`` distinct suites, each first sent before any
    repeat of it, and ``SERVE_HITS`` repeats of earlier suites, shuffled
    together.  Returns one ``{"suite": payload, "key": index,
    "hit": bool}`` per request in send order.
    """
    rng = _rng("serve-mixed", seed)
    suites = [_serve_suite(index, _seed(rng)) for index in range(SERVE_MISSES)]
    kinds = [False] * SERVE_MISSES + [True] * SERVE_HITS
    # A repeat can only follow at least one distinct suite.
    rng.shuffle(kinds)
    kinds.remove(False)
    kinds.insert(0, False)
    stream: list[dict] = []
    sent = 0
    for hit in kinds:
        if hit:
            key = rng.randrange(sent)
        else:
            key = sent
            sent += 1
        stream.append({"suite": suites[key], "key": key, "hit": hit})
    return stream


GENERATORS = {
    "lenet-2w": lenet_2w,
    "lenet-shards": lenet_shards,
}
