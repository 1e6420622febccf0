"""The ensemble_sweep worker: the paper's spread experiment as library calls.

Usage: ``python perfbench/ensemble_child.py [SPANS_OUT]``.  Reads one JSON
request per stdin line and answers each with one JSON line on stdout:

* ``{"op": "sweep", "rid", "data", "shape_seed", "perm_seed", "n_trees"}``
  -- ``data`` is base64 float64.  Computes the exact sum, builds a fresh
  random tree shape, evaluates ``n_trees`` permuted-leaf trees for ST, K,
  CP and PR over the balanced, serial and random shapes, and measures
  each ensemble's worst error against the exact sum.  Answers with the
  exact sum and every tree value (base64, algorithm-major then shape).
* ``{"op": "exit"}`` -- answers with the process's metrics and exits.

With ``SPANS_OUT`` the calls into ``trees`` and ``exact`` are traced, the
metrics registry is on, and spans are written there on exit.
"""

from __future__ import annotations

import base64
import json
import sys
import time

CODES = ("ST", "K", "CP", "PR")


def main(argv: "list[str]") -> int:
    spans_out = argv[0] if argv else None
    import numpy as np

    import repro.exact.superacc as exact
    import repro.trees.evaluate as evaluate
    import repro.trees.shapes as shapes
    from repro.obs import get_registry
    from repro.summation.registry import get_algorithm
    from repro.trees.schedule import schedule_cache_info

    tracer = None
    if spans_out is not None:
        from spans import Tracer

        tracer = Tracer()
        get_registry().enable()
        exact.exact_sum = tracer.wrap(exact.exact_sum, "exact.sum")
        shapes.random_shape = tracer.wrap(shapes.random_shape, "trees.random_shape")
        evaluate.evaluate_ensemble = tracer.wrap(
            evaluate.evaluate_ensemble,
            "trees.ensemble",
            items=lambda data, shape, alg, n_trees, **kw: n_trees,
            tag=lambda data, shape, alg, n_trees, **kw: (
                shape if isinstance(shape, str) else "random"
            ),
        )

    algorithms = [get_algorithm(code) for code in CODES]

    def sweep(req: dict) -> dict:
        if tracer is not None:
            tracer.set_request(str(req["rid"]))
        data = np.frombuffer(base64.b64decode(req["data"]), dtype="<f8")
        n_trees = int(req["n_trees"])
        exact_value = exact.exact_sum(data)
        random_tree = shapes.random_shape(data.size, int(req["shape_seed"]))
        values = []
        worst = []
        for alg in algorithms:
            for shape in ("balanced", "serial", random_tree):
                v = evaluate.evaluate_ensemble(
                    data, shape, alg, n_trees, seed=int(req["perm_seed"])
                )
                values.append(v)
                worst.append(float(np.max(np.abs(v - exact_value))))
        return {
            "rid": req["rid"],
            "exact": float(exact_value).hex(),
            "values": base64.b64encode(np.concatenate(values).astype("<f8").tobytes()).decode(),
            "worst_error": worst,
        }

    if tracer is not None:
        sweep = tracer.wrap(sweep, "ensemble.sweep", new_request=True)

    print(json.dumps({"ready": True}), flush=True)
    try:
        for line in sys.stdin:
            req = json.loads(line)
            if req["op"] == "exit":
                print(
                    json.dumps(
                        {
                            "schedule_cache": schedule_cache_info(),
                            "metrics": get_registry().render_prometheus(),
                        }
                    ),
                    flush=True,
                )
                break
            started = time.perf_counter()
            out = sweep(req)
            out["compute_s"] = time.perf_counter() - started
            print(json.dumps(out), flush=True)
    finally:
        if tracer is not None:
            tracer.dump(spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
