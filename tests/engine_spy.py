"""Record the contour engine calls that one package module makes."""

import numpy as np


def spy_engine(monkeypatch, module):
    """Wrap module.integrate_paths for the test; returns a list that gets one
    dict per engine call: its passes (integrand calls), its points (the sum
    of n_evals), the `near` it was given and the values it returned."""
    engine, calls = module.integrate_paths, []

    def counted(f, paths, *args, **kw):
        call = {"passes": 0, "near": kw.get("near")}

        def g(z, path_id):
            call["passes"] += 1
            return f(z, path_id)

        out = engine(g, paths, *args, **kw)
        call.update(points=int(np.sum(out[2])), values=out[0])
        calls.append(call)
        return out

    monkeypatch.setattr(module, "integrate_paths", counted)
    return calls
