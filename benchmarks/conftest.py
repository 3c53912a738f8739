"""Shared helpers for the benchmark suite.

Each ``bench_*.py`` regenerates one table/figure: it runs the experiment
under ``pytest-benchmark`` (one round — these are end-to-end system runs,
not microbenchmarks), prints the paper-style table, writes it to
``benchmarks/results/``, and asserts the paper's qualitative shape.

Without ``pytest-benchmark`` installed, a one-shot ``benchmark`` fixture
and a no-op ``--benchmark-disable`` flag stand in, so
``pytest benchmarks/bench_*.py --benchmark-disable`` runs either way.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.bench.report import ExperimentResult, render

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record(result: ExperimentResult) -> ExperimentResult:
    """Print and persist a regenerated table/figure."""
    text = render(result)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    filename = result.name.lower().replace(" ", "")
    (RESULTS_DIR / f"{filename}.txt").write_text(text + "\n")
    return result


def run_once(benchmark, fn) -> ExperimentResult:
    """Run an experiment exactly once under the benchmark fixture."""
    return record(benchmark.pedantic(fn, rounds=1, iterations=1))


if importlib.util.find_spec("pytest_benchmark") is None:

    class _OneShot:
        """The slice of pytest-benchmark's fixture this suite uses."""

        def pedantic(self, fn, rounds=1, iterations=1):
            return fn()

    @pytest.fixture
    def benchmark():
        return _OneShot()

    def pytest_addoption(parser):
        parser.addoption(
            "--benchmark-disable",
            action="store_true",
            help="accepted for pytest-benchmark compatibility; no effect",
        )
