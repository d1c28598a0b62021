"""Layer tracing for the pulsetunnel benchmark.

The tracer wraps pulsetunnel's public functions at the places their callers
look them up (module attributes, and the names other pulsetunnel modules
imported), so the package itself is not modified.  It keeps a call count
and a time per layer, in memory.

Clocks: `cli.main` is timed in wall-clock seconds, because its caller waits
for it.  Every other layer is timed in CPU seconds of the thread that ran it
(busy time), because the CLI's trajectory method runs its work on a thread
pool and wall-clock times of concurrent threads would overlap.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import Counter

import numpy as np

wall = time.perf_counter
busy = time.thread_time

FFT_ENTRY_POINTS = ("fft", "ifft")


class _State:
    """Counters of one thread.

    Each thread writes only its own state, so the hot wrappers take no lock.
    """

    def __init__(self):
        self.counts = Counter()
        self.seconds = Counter()


class _Local(threading.local):
    """Gives each thread its own _State and registers it with the tracer."""

    def __init__(self, registry: list, lock: threading.Lock):
        self.state = _State()
        with lock:
            registry.append(self.state)


class Tracer:
    def __init__(self):
        self._states = []
        self._lock = threading.Lock()
        self._local = _Local(self._states, self._lock)
        self._restore = []

    # --- bookkeeping ---------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (call while no traced code runs)."""
        with self._lock:
            for state in self._states:
                state.counts.clear()
                state.seconds.clear()

    def _total(self, field: str) -> Counter:
        total = Counter()
        with self._lock:
            for state in self._states:
                total.update(getattr(state, field))
        return total

    @property
    def counts(self) -> Counter:
        """Counts summed over all threads."""
        return self._total("counts")

    @property
    def seconds(self) -> Counter:
        """Busy (or, for cli.main, wall) seconds summed over all threads."""
        return self._total("seconds")

    # --- wrappers ------------------------------------------------------------------

    def timer(self, name: str, fn, *, clock=busy, after=None):
        """Wrap fn so that it adds its count and inclusive time to `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._local.state
            c0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                st.counts[name] += 1
                st.seconds[name] += clock() - c0
            if after is not None:
                after(st, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn, *, points=False, timed=False):
        """Wrap a hot function with a call counter (and optional point count
        and busy time)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c0 = busy() if timed else 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                st = self._local.state
                st.counts[name] += 1
                if timed:
                    st.seconds[name] += busy() - c0
                if points:
                    st.counts[name + ".points"] += _size(args[-1])

        return wrapper

    def quad(self, fn):
        """Wrap a contour quadrature entry point f(integrand, ...) in a timer,
        and its integrand in a counter of evaluation points and busy time."""
        timer = self.timer("contour.quad", fn)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            st = self._local.state

            def counted(z):
                c0 = busy()
                try:
                    return f(z)
                finally:
                    st.seconds["contour.integrand"] += busy() - c0
                    st.counts["contour.integrand"] += _size(z)

            return timer(counted, *args, **kwargs)

        return wrapper

    # --- installation --------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, original, replacement) -> None:
        """Replace `original` under every name a pulsetunnel module binds it to."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "pulsetunnel":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install_fft(self) -> None:
        """Wrap the numpy.fft and scipy.fft entry points.

        Call before importing pulsetunnel, so a module that binds an FFT
        function at import time binds the wrapper.
        """
        import scipy.fft

        for module in (np.fft, scipy.fft):
            for name in FFT_ENTRY_POINTS:
                fn = getattr(module, name)
                self._patch(module, name,
                            self.counter("tdse.fft", fn, timed=True))

    def install(self) -> None:
        """Wrap the package's layer entry points (after pulsetunnel is imported)."""
        from pulsetunnel import cli, euclidean, hj, model, quanta, tdse, trajectory

        self._patch(model.LorentzPulse, "__call__",
                    self.counter("model.pulse", model.LorentzPulse.__call__,
                                 points=True))
        for mod in (hj, trajectory):
            for name in ("quad_path", "quad_line"):
                if hasattr(mod, name):
                    self._patch(mod, name, self.quad(getattr(mod, name)))
        layer_functions = [
            (hj.solve_t0, "hj.solve_t0"),
            (hj.action, "hj.action"),
            (hj.sigma1, "hj.sigma1"),
            (hj.sigma2, "hj.sigma2"),
            (trajectory.delta_action, "trajectory.delta_action"),
            (trajectory.minimize_delta_action, "trajectory.minimize"),
            (euclidean.euclidean_action, "euclidean.action"),
            (quanta.optimize_quanta, "quanta.optimize"),
            (tdse.prepare_metastable, "tdse.prepare_metastable"),
        ]
        for fn, name in layer_functions:
            self.patch_everywhere(fn, self.timer(name, fn))
        self.patch_everywhere(
            quanta.effective_action,
            self.counter("quanta.effective_action", quanta.effective_action))
        self.patch_everywhere(
            tdse.evolve,
            self.timer("tdse.evolve", tdse.evolve, after=self._evolve_steps(tdse.evolve)))
        self.patch_everywhere(
            cli.main, self.timer("cli.main", cli.main, clock=wall,
                                after=self._csv_bytes))

    def _evolve_steps(self, evolve):
        signature = inspect.signature(evolve)

        def after(st, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            state, grid = bound.arguments["state"], bound.arguments["grid"]
            dt = bound.arguments["dt"] or grid.dt
            t_final = bound.arguments["t_final"] or grid.t_final
            st.counts["tdse.steps"] += round(abs(t_final - state.time) / abs(dt))

        return after

    @staticmethod
    def _csv_bytes(st, args, kwargs, result) -> None:
        argv = list(args[0] if args else kwargs.get("argv") or [])
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                st.counts["cli.csv_bytes"] += os.path.getsize(path)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


_SCALARS = (float, complex, int)


def _size(x) -> int:
    return 1 if type(x) in _SCALARS else int(np.size(x))
