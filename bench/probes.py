"""Layer probes: each hot layer timed on its own, on seeded inputs.

* ``uniforms`` and ``normal_inv_cdf`` on 10**6 draws;
* every built-in ``eval_fn`` at n = 10**5;
* ``sym_eig`` at d = 10, 30 and 100 on a seeded full-rank SPD matrix;
* ``dumps_json`` of the highdim-spectrum report.

Each value is the median of a few repetitions, in seconds.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

from sensyn.linalg import sym_eig
from sensyn.models import make_builtin, sample_inputs
from sensyn.output import dumps_json, report_to_dict
from sensyn.randkit import RngStream, normal_inv_cdf
from sensyn.report import build_report


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _spd(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d))
    a = g @ g.T / d + np.eye(d)
    return (a + a.T) / 2.0


def run_probes(seed: int, highdim_model, highdim_seed: int) -> dict[str, float]:
    """Probe metrics, named ``probe.*``; ``highdim_model`` and
    ``highdim_seed`` rebuild the highdim-spectrum report."""
    rng = np.random.default_rng(seed)
    stream = RngStream(seed)
    u = stream.uniforms(10**6)
    out = {
        "probe.uniforms.s": _median_time(
            lambda: RngStream(seed, 1).uniforms(10**6), 5),
        "probe.normal_inv_cdf.s": _median_time(lambda: normal_inv_cdf(u), 5),
    }

    pick = random.Random(seed)
    a = rng.uniform(-1.0, 1.0, (3, 3))
    params = {
        "example1": {},
        "example2": {},
        "example4": {},
        "linear": {"coefficients": [pick.uniform(-2.0, 2.0) for _ in range(10)]},
        "quadratic": {"a_matrix": (a + a.T) / 2.0,
                      "b": rng.uniform(-1.0, 1.0, 3).tolist()},
    }
    for name, kwargs in params.items():
        model = make_builtin(name, **kwargs)
        x = sample_inputs(model, 10**5, stream.substream(7))
        out[f"probe.eval.{name}.s"] = _median_time(lambda: model.eval_fn(x), 5)

    for d in (10, 30, 100):
        matrix = _spd(rng, d)
        out[f"probe.sym_eig.d{d}.s"] = _median_time(
            lambda: sym_eig(matrix), 3 if d < 100 else 1)

    report = build_report(highdim_model, seed=highdim_seed,
                          methods=("sobol", "gas"), n=1000)
    out["probe.dumps_json.s"] = _median_time(
        lambda: dumps_json(report_to_dict(report)), 5)
    return out
