#!/usr/bin/env python3
"""Speed samples of the CPU this process runs on, for bench/run.py.

    python3 bench/calibrate.py PERIOD_S

Prints "ready" once its imports are done.  Then, every PERIOD_S seconds, it
times a fixed piece of work in its own CPU seconds and prints
"<time.perf_counter() at the end> <CPU seconds>", until it is terminated or
its parent process ends.  CPU seconds do not count the time this process
waits for the CPU, so the samples follow the speed of the CPU, not how busy
it is.

The work mixes the three kinds the package does: a pure-Python complex loop,
numpy FFTs and adaptive scipy quadratures of a Python integrand.  It uses no
pulsetunnel code, so a change to the package cannot move it.
"""

import cmath
import math
import os
import sys
import time

import numpy as np
from scipy.integrate import quad

X = np.exp(1j * np.linspace(0.0, 50.0, 4096))


def work() -> None:
    z = 0j
    for k in range(5000):
        z = cmath.sqrt(z + complex(k % 7, 1.0))
    x = X
    for _ in range(10):
        x = np.fft.ifft(np.fft.fft(x) * 0.999)
    for w in range(20, 25):
        quad(lambda t, w=w: math.cos(w * t) / (1.0 + t * t), 0.0, 10.0,
             limit=400, epsrel=1e-10)


def main() -> None:
    period = float(sys.argv[1])
    parent = os.getppid()
    print("ready", flush=True)
    due = time.perf_counter()
    while os.getppid() == parent:
        c0 = time.process_time()
        work()
        cpu = time.process_time() - c0
        print(f"{time.perf_counter():.6f} {cpu:.9f}", flush=True)
        due += period
        time.sleep(max(0.0, due - time.perf_counter()))


if __name__ == "__main__":
    main()
