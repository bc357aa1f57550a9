"""Tests for the BLAS thread cap that runs when ``repro`` is imported."""

import os
import subprocess
import sys

import numpy as np

import repro
from repro.blas import blas_thread_counts, cap_blas_threads


def test_import_leaves_blas_on_the_calling_thread():
    # A fresh interpreter: an OpenBLAS the suite loads later (SciPy's own)
    # is not NumPy's and was never capped.
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    script = "import repro.blas; print(repro.blas.blas_thread_counts())"
    output = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True).stdout
    counts = [int(count) for count in output.strip(" []\n").split(",")
              if count.strip()]
    assert all(count == 1 for count in counts)


def test_cap_sets_every_loaded_openblas(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = blas_thread_counts()
    try:
        assert cap_blas_threads(2) == len(before)
        assert blas_thread_counts() == [2] * len(before)
        assert cap_blas_threads(1) == len(before)
        assert blas_thread_counts() == [1] * len(before)
    finally:
        if before:
            cap_blas_threads(before[0])


def test_explicit_environment_wins(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    before = blas_thread_counts()
    assert cap_blas_threads() == 0
    assert blas_thread_counts() == before


def test_gemm_bits_do_not_depend_on_blas_threads(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    rng = np.random.default_rng(3)
    data = rng.standard_normal((64, 256))
    projection = rng.standard_normal((256, 512))
    before = blas_thread_counts()
    try:
        cap_blas_threads(1)
        serial = data @ projection
        cap_blas_threads(2)
        threaded = data @ projection
    finally:
        if before:
            cap_blas_threads(before[0])
    assert np.array_equal(serial, threaded)
