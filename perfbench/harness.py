"""Measurement loop, output checks and calibration.

One run drives one workload in a closed loop: one caller, one process,
each repetition starting when the previous one has finished. A
repetition is what a user of stencilc waits for:

1. build the symbolic problem (``setup_s``, first part),
2. ``clear_cache()`` and ``Operator(...)``, so every pass runs
   (``compile_s``),
3. ``Operator.allocate`` and fill the buffers from the seed (``setup_s``,
   second part),
4. ``Operator.apply(workers=1)`` (``run_mpts``).

A repetition is one operation. It fails if it raises, writes a non-finite
value, or is not bitwise equal to the first repetition. After the timed
loop the first repetition is compared with ``Operator.reference``; if it
is more than 1e-12 (relative) away, every operation fails, since all the
others were bitwise equal to it. The oracle shares ``_vec_slices`` and
``vec_eval`` with the interpreter, so a bug in that code would pass this
check; giving the oracle its own sweep is separate work.

``workers2_check`` applies with workers=2 and compares bitwise with the
workers=1 output. A mismatch is counted, not failed: see README.md for
the defect it shows.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from tracing import NullTracer

TOLERANCE = 1e-12
MIN_REPS = 3
#: Calibration samples taken between timed repetitions.
CALIBRATION_SAMPLES = 8
#: Median kernel times on the reference machine, a 2-vCPU Xeon (Sapphire
#: Rapids class, 105 MiB L3) KVM guest.
REFERENCE_S = {"python": 0.007, "numpy": 0.022}


def summarize(samples: List[float]) -> dict:
    """Median, and the highest nearest-rank percentile that has at least
    ten samples beyond it (absent below eleven samples), with the count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": median(xs), "n": n}
    if n >= 11:
        rank = n - 10
        out["p%.1f" % (100.0 * rank / n)] = xs[rank - 1]
    return out


def calibrate_python() -> float:
    """Seconds for a fixed pure-Python kernel (tuple, dict and integer
    work, the mix stencilc's passes do)."""
    t0 = perf_counter()
    table = {}
    for i in range(20000):
        key = (i % 97, i % 89, "x")
        table[key] = table.get(key, 0) + i * i % 7
    return perf_counter() - t0


#: Padded grid, output and scratch of the numpy kernel, made on first use
#: so that only the workloads that calibrate with it carry them in RSS.
_STENCIL: List[np.ndarray] = []


def calibrate_numpy() -> float:
    """Seconds for a fixed whole-array 7-point stencil over a 96^3 grid
    (104^3 with its halo, 23 MiB with output and scratch), the kind of
    pass the interpreter's sliced path makes over the acoustic grid. It
    shares that grid's array sizes and so its cache behaviour; a kernel
    over 8 MiB tracked the acoustic apply's drift far worse (README.md).
    After the first call it allocates nothing."""
    if not _STENCIL:
        _STENCIL.extend([np.linspace(0.0, 1.0, 104 ** 3).reshape((104,) * 3),
                         np.empty((96,) * 3), np.empty((96,) * 3)])
    a, out, tmp = _STENCIL
    inner = slice(4, -4)
    t0 = perf_counter()
    np.multiply(a[inner, inner, inner], -6.0, out=out)
    for axis in range(3):
        for d in (-1, 1):
            index = [inner] * 3
            index[axis] = slice(4 + d, 100 + d)
            np.multiply(a[tuple(index)], 0.5, out=tmp)
            np.add(out, tmp, out=out)
    return perf_counter() - t0


KERNELS = {"python": calibrate_python, "numpy": calibrate_numpy}


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| over max(1, max|b|), the measure the acceptance suite
    uses against the oracle."""
    scale = max(1.0, float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.array_equal(a.view(np.uint8), b.view(np.uint8))


def check_outputs(outputs: Dict[str, np.ndarray],
                  first: Optional[Dict[str, np.ndarray]]) -> Optional[str]:
    """Why this repetition's outputs fail, or None when they pass."""
    for name, arr in outputs.items():
        if not np.isfinite(arr).all():
            return "non-finite value in %s" % name
        if first is not None and not bitwise_equal(arr, first[name]):
            return "%s not bitwise equal to the first repetition" % name
    return None


class WorkloadRun:
    """One workload in one process: the inputs drawn from the seed, the
    first repetition's outputs, the tallies and the timing samples."""

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.rng = np.random.default_rng(seed)
        self.coords = workload.draw_coordinates(workload, self.rng)
        self.fields = None
        self.first: Optional[Dict[str, np.ndarray]] = None
        self.op = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.workers2_applied = 0
        self.workers2_mismatches = 0
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Set-up and compile are scaled by the Python kernel, the apply by
        #: the kernel its run is bound by; only these kernels run.
        self.kernels = sorted({"python", workload.run_kernel})
        self.calibration: Dict[str, List[float]] = defaultdict(list)
        self.working_set_bytes = 0

    def _filled(self, op):
        buffers = op.allocate(self.wl.steps)
        if self.fields is None:
            self.fields = self.wl.draw_fields(self.wl, self.rng, buffers)
        for name, arr in self.fields.items():
            np.copyto(buffers[name].data, arr)
        return buffers

    def attempt(self, tracer=None):
        """One repetition, counted as one operation. Returns the Operator,
        the run report and the timings, or None when it failed."""
        self.attempted += 1
        try:
            out = self._repetition(tracer or NullTracer())
        except Exception:
            out = None
            reason = traceback.format_exc(limit=3)
        else:
            reason = out.pop("failure")
        if reason is not None:
            self.failed += 1
            self.failures.append(reason)
            print("operation failed: %s" % reason, file=sys.stderr)
            return None
        return out

    def _repetition(self, tracer) -> dict:
        from stencilc.backend import Operator, clear_cache
        wl = self.wl
        t0 = perf_counter()
        with tracer.span("symbolic.build"):
            eqs, names = wl.build(wl, self.coords)
        t1 = perf_counter()
        clear_cache()
        with tracer.span("operator.compile", counts=True):
            op = Operator(eqs, mode=wl.mode, block=wl.block)
        t2 = perf_counter()
        with tracer.span("operator.allocate"):
            buffers = self._filled(op)
        t3 = perf_counter()
        with tracer.span("operator.apply", counts=True):
            _, report = op.apply(steps=wl.steps, buffers=buffers, workers=1,
                                 dt=wl.dt)
        t4 = perf_counter()
        self.op = op
        self.working_set_bytes = sum(b.data.nbytes for b in buffers.values())
        outputs = {n: buffers[n].data for n in names}
        failure = check_outputs(outputs, self.first)
        if failure is None and self.first is None:
            self.first = {n: a.copy() for n, a in outputs.items()}
        times = {"setup_s": (t1 - t0) + (t3 - t2), "compile_s": t2 - t1,
                 "apply_s": t4 - t3, "solve_s": t4 - t0}
        return {"op": op, "report": report, "failure": failure,
                "times": times}

    def workers2_check(self, expected: Dict[str, np.ndarray]) -> float:
        """Apply the last Operator with workers=2 on fresh buffers, count a
        bitwise mismatch with ``expected``, and return the apply time."""
        wl = self.wl
        buffers = self._filled(self.op)
        t0 = perf_counter()
        self.op.apply(steps=wl.steps, buffers=buffers, workers=2, dt=wl.dt)
        elapsed = perf_counter() - t0
        self.workers2_applied += 1
        if not all(bitwise_equal(buffers[n].data, a)
                   for n, a in expected.items()):
            self.workers2_mismatches += 1
        return elapsed

    def loop(self, seconds: float):
        """Timed repetitions until ``seconds`` have passed and at least
        MIN_REPS ran. The calibration kernels run before and after each
        one; the timings of those that pass go to ``samples``, with the
        speed factors of the calibration that brackets them."""
        start = perf_counter()
        reps = 0
        before = self._calibrate()
        while reps < MIN_REPS or perf_counter() - start < seconds:
            out = self.attempt()
            after = self._calibrate()
            if out is not None:
                for name, value in out["times"].items():
                    self.samples[name].append(value)
                for kernel in self.kernels:
                    self.samples[kernel + "_factor"].append(
                        REFERENCE_S[kernel]
                        / median(before[kernel] + after[kernel]))
            before = after
            reps += 1

    def _calibrate(self) -> Dict[str, List[float]]:
        """Time each kernel CALIBRATION_SAMPLES times. The cyclic garbage
        collector is off meanwhile: a collection would walk the objects the
        repetition left behind, and make the kernel's time depend on
        stencilc's heap rather than only on the machine."""
        samples = {k: [] for k in self.kernels}
        gc.disable()
        try:
            for _ in range(CALIBRATION_SAMPLES):
                for kernel in self.kernels:
                    samples[kernel].append(KERNELS[kernel]())
        finally:
            gc.enable()
        for kernel, times in samples.items():
            self.calibration[kernel].extend(times)
        return samples

    def oracle_check(self):
        """Compare the first repetition with ``Operator.reference``. When it
        fails, every operation fails: the others were bitwise equal to it."""
        if self.first is None or self.op is None:
            self.failed = self.attempted
            return
        wl = self.wl
        buffers = self._filled(self.op)
        self.op.reference(steps=wl.steps, buffers=buffers, dt=wl.dt)
        for name, arr in self.first.items():
            err = max_rel_err(arr, buffers[name].data)
            if not err <= TOLERANCE:
                self.failures.append("%s is %.3g from the oracle"
                                     % (name, err))
                print("oracle check failed: %s" % self.failures[-1],
                      file=sys.stderr)
                self.failed = self.attempted
                return


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- machine record ------------------------------------------------------------


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _llc_bytes() -> Optional[int]:
    """Size of the highest cache level cpu0 reports."""
    best = None
    for i in range(8):
        base = "/sys/devices/system/cpu/cpu0/cache/index%d/" % i
        level, size = _read(base + "level"), _read(base + "size")
        if level is None or size is None:
            continue
        size = size.strip()
        mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        nbytes = int(size.rstrip("KM")) * mult
        if best is None or int(level) >= best[0]:
            best = (int(level), nbytes)
    return best[1] if best else None


def _commit(root: Path) -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree_hash(src: Path) -> str:
    """sha256 over the stencilc sources, which identifies the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine(root: Path) -> dict:
    return {"cpu": _cpu_model(), "nproc": os.cpu_count(),
            "llc_bytes": _llc_bytes(),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": _commit(root),
            "src_sha256": _tree_hash(root / "src" / "stencilc")}
