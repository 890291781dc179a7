"""The benchmark's per-layer tracer against the package it wraps.

``benchmark/tracer.py`` patches wrappers in by function name and reads
``OccupancyMeasure.terms``; a renamed or deleted name would otherwise show
only when a traced benchmark run fails.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from atomless_mdp.model import random_model, random_stationary_policy

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_records_traced_calls():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    occupancy = importlib.import_module("atomless_mdp.occupancy")
    scalar_dp = importlib.import_module("atomless_mdp.scalar_dp")
    model = random_model(4, 2, 2, seed=3)
    policy = random_stationary_policy(model, np.random.default_rng(0))
    tracer.install()
    try:
        q = occupancy.occupancy(model, policy)
        scalar_dp.value_iteration(scalar_dp.SubmodelSpec.full(model), np.ones(2))
    finally:
        tracer.uninstall()
    assert not hasattr(occupancy.occupancy, "__wrapped__")
    metrics = tracer.metrics(1.0, 0.0)
    assert set(metrics) == set(tracing.metric_units())
    assert metrics["occupancy.occupancy.calls"] == 1
    # one P_w for the occupancy, at least one for value_iteration's policy
    # evaluations, which solve on the base grid through the occupancy layer
    assert not model.is_one_step()
    assert metrics["occupancy.transition_matrix.calls"] >= 2
    assert metrics["occupancy.squarings"] == math.log2(q.terms)
    assert metrics["scalar_dp.value_iteration.calls"] == 1
    assert metrics["scalar_dp.SubmodelSpec.init.calls"] == 1
    assert metrics["scalar_dp.value_iteration.intervals_mean"] == model.cell_count
