"""In-process cost of one run_trial, first grid point against later ones.

Usage, from the root of the checkout:

    python3 tools/trial_cost.py                      # this checkout's src/
    python3 tools/trial_cost.py --src ../other/src   # another tree's package

It builds the ``mc-8x8-aux-ftm`` benchmark workload's config in-process
(8x8 arrays on both sides, aux beams, SNR 20 dB, the sweep-ftm default
sigma grid 0.001, 0.01, 0.05, 0.1, 0.2 m) with a fixed seed and 200
trials, samples every trial's scene once, untimed, and then per repeat
starts fresh Trial records and runs the grid in run_experiment's order.
The first sigma point of each trial is a memo miss (it trains the
beams); the other four are memo hits.  Each repeat times all misses,
then all hits, with the garbage collector off, as timeit does.  It
prints one JSON line: the minimum over the repeats of the microseconds
per miss and per hit, with the repeat count (7) and the versions.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIGMAS = (0.001, 0.01, 0.05, 0.1, 0.2)
TRIALS = 200
SEED = 1
REPEATS = 7


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the mm3nlos package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    from mm3nlos.channel import UpaGeometry, build_codebook
    from mm3nlos.sim import ExperimentConfig, Trial, TrialRng, make_scenario_sampler, run_trial

    cfg = ExperimentConfig(
        tx_upa=((8, 8),), rx_upa=((8, 8),), ftm_sigma_m=SIGMAS, beam=("aux",), trials=TRIALS, seed=SEED
    )
    points = [replace(cfg, ftm_sigma_m=(sigma,)) for sigma in SIGMAS]
    book = build_codebook(UpaGeometry(8, 8), cfg.oversampling)
    books = (book, book)
    sample = make_scenario_sampler(cfg)
    scenes = [sample(TrialRng.from_seed(cfg.seed, t).scenario) for t in range(cfg.trials)]

    miss_s, hit_s = [], []
    for _ in range(REPEATS):
        # Fresh streams and empty memos; run_trial reads no scenario stream.
        trials = [Trial.start(scene, TrialRng.from_seed(cfg.seed, t)) for t, scene in enumerate(scenes)]
        gc.disable()
        try:
            start = time.perf_counter()
            for trial in trials:
                run_trial(points[0], trial, codebooks=books)
            middle = time.perf_counter()
            for point in points[1:]:
                for trial in trials:
                    run_trial(point, trial, codebooks=books)
            end = time.perf_counter()
        finally:
            gc.enable()
        miss_s.append((middle - start) / len(trials))
        hit_s.append((end - middle) / (len(trials) * (len(points) - 1)))

    print(json.dumps({
        "workload": "mc-8x8-aux-ftm",
        "trials": cfg.trials,
        "sigma_points": len(points),
        "seed": cfg.seed,
        "repeats": REPEATS,
        "miss_us": round(min(miss_s) * 1e6, 2),
        "hit_us": round(min(hit_s) * 1e6, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
