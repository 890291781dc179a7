"""The workloads: seeded inputs, one operation at a time, independent checks.

A workload runs in rounds.  Every round has the same list of operation
shapes; round r draws its inputs afresh from (seed, r), so a run averages
over many inputs and the same seed always gives the same inputs.  For each
operation, ``prepare`` builds fresh program objects from the plain input
arrays through the public constructors, untimed, because ``certificate()``
and the performance cache are memoised on the model object and a user
calling once pays them cold.  ``Op.call`` is the timed call; ``Op.check``
verifies its output with ``reference`` and returns ``(residual, bound,
reason)``, where ``reason`` is None when the output is correct.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import reference as ref

am = importlib.import_module("atomless_mdp")
cli = importlib.import_module("atomless_mdp.cli")


@dataclass
class Op:
    shape: dict                 # sizes recorded with the operation
    call: Callable              # the timed operation
    check: Callable             # output -> (residual, bound, reason or None)


class Workload:
    """Rounds of seeded inputs; subclasses define ``plan``, ``draw`` and ``_op``."""

    name = ""
    stream = 0

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed, self.smoke, self.workdir = seed, smoke, workdir
        self.items: list = []
        self.warmup_item = self.draw(np.random.default_rng([0, self.stream, 1 << 30]),
                                     self.warmup_shape, "warm")

    def start_round(self, r: int) -> None:
        """Draw round r's inputs, one per planned shape."""
        rng = np.random.default_rng([self.seed, self.stream, r])
        plan = self.smoke_plan if self.smoke else self.plan
        self.items = [self.draw(rng, shape, f"r{r}-{k}") for k, shape in enumerate(plan)]

    def __len__(self):
        return len(self.items)

    def prepare(self, k: int) -> Op:
        return self._op(self.items[k])

    def warmup(self) -> Op:
        return self._op(self.warmup_item)


def build_model(spec):
    grid = am.StatePartition(spec.points)
    return am.AtomlessMDP(grid, spec.actions, spec.available, spec.kernel, spec.absorb,
                          spec.rewards, am.PieceMeasure(grid, spec.initial))


# ---------------------------------------------------------------------------
# derandomize-small
# ---------------------------------------------------------------------------


class DerandomizeSmall(Workload):
    """derandomize(model, pi, tol=1e-5) on 6 to 8 cells, 2 or 3 actions, N in {1, 2}.

    A round holds three two-criterion models and one one-criterion model,
    each with seeded cells and actions.  Three criteria are left out because
    derandomize fails there on some seeds (see README.md).
    """

    name = "derandomize-small"
    stream = 1
    tol = 1e-5
    plan = [2, 2, 2, 1]                 # criteria of each model in a round
    smoke_plan = [2, 1]
    warmup_shape = 2
    negatives = (0,)                    # items given a wrong answer by --selftest

    def draw(self, rng, criteria, tag):
        cells = 2 if tag == "warm" else 4 if self.smoke else int(rng.integers(6, 9))
        spec = inputs.model_spec(rng, cells, int(rng.integers(2, 4)), criteria)
        return spec, inputs.stationary_policy(rng, spec)

    def _op(self, item) -> Op:
        spec, policy = item
        model = build_model(spec)
        pi = am.StationaryPolicy(am.StatePartition(policy[0]), policy[1])
        v_pi = ref.evaluate(spec, *policy)
        bound = self.tol * (1.0 + float(np.linalg.norm(v_pi)))

        def check(result):
            phi = result[0]
            reason = ref.check_deterministic(spec, phi, am.DeterministicPolicy)
            if reason:
                return float("inf"), bound, reason
            v_phi = ref.evaluate(spec, phi.partition.points,
                                 ref.one_hot(phi.actions, spec.actions))
            residual = float(np.linalg.norm(v_phi - v_pi))
            return residual, bound, None if residual <= bound else "v(phi) misses v(pi)"

        cells, actions, criteria = spec.shape
        return Op({"M": cells, "A": actions, "N": criteria},
                  lambda: am.derandomize(model, pi, tol=self.tol), check)

    def corrupt(self, k, result):
        """Item k's check, and its output with one interval's action changed."""
        spec = self.items[k][0]
        phi = result[0]
        pts, acts = phi.partition.points, phi.actions.copy()
        meets = ref.overlap(pts, spec.points) > 0.0
        # prefer the longest interval with another action available throughout
        for j in np.argsort(-np.diff(pts)):
            common = set.intersection(*(set(spec.available[i]) for i in np.flatnonzero(meets[j])))
            if common - {int(acts[j])}:
                acts[j] = min(common - {int(acts[j])})
                break
        else:
            acts[0] = (int(acts[0]) + 1) % spec.actions
        wrong = am.DeterministicPolicy(phi.partition, acts)
        return self.prepare(k).check, (wrong, *result[1:])


# ---------------------------------------------------------------------------
# cli-evaluate-path
# ---------------------------------------------------------------------------

CLI_TOL = 1e-9              # the CLI's default occupancy truncation tolerance
ROUNDING = 1e-11            # relative allowance between the series and a dense solve


def _report_value(text: str, key: str) -> float:
    for line in text.splitlines():
        if line.startswith(key + ": "):
            return float(line.split(": ", 1)[1])
    raise ValueError(f"run report has no {key!r} line")


def _read_table(path, csv: bool) -> np.ndarray:
    """A CSV with a header row, or whitespace rows without one."""
    if csv:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return np.loadtxt(path, ndmin=2)


class CliEvaluatePath(Workload):
    """In-process cli.main: `evaluate`, `path --grid 21` and `lyapunov find`.

    A round writes a 192-cell model file with the benchmark's own writer; on
    it, it evaluates a stationary and a deterministic policy and runs the
    threshold path between two deterministic policies.  It also runs
    `lyapunov find` (tol 1e-6) on the 256-cell vector measure with densities
    (1, 2x) over the uniform base, for a target lambda * total with a seeded
    lambda in [0.2, 0.8].
    """

    name = "cli-evaluate-path"
    stream = 3
    grid = 21
    find_tol = 1e-6
    commands = ("evaluate-pi", "evaluate-phi0", "path", "lyapunov-find")
    policy_of = {"evaluate-pi": "pi.txt", "evaluate-phi0": "phi0.txt"}
    plan = [(192, 256)]                 # cells of the model and of the vector measure
    smoke_plan = [(24, 32)]
    warmup_shape = (8, 16)
    negatives = (0, 3)                  # evaluate-pi and lyapunov-find

    def start_round(self, r: int) -> None:
        shutil.rmtree(os.path.join(self.workdir, f"r{r - 1}"), ignore_errors=True)
        super().start_round(r)
        self.items = [(*files, command) for files in self.items for command in self.commands]

    def warmup(self) -> Op:
        return self._op((*self.warmup_item, "path"))

    def draw(self, rng, shape, tag):
        cells, measure_cells = shape
        folder = os.path.join(self.workdir, tag.split("-")[0])
        os.makedirs(folder, exist_ok=True)
        files = {name: os.path.join(folder, f"{tag}.{name}")
                 for name in ("model.json", "pi.txt", "phi0.txt", "phi1.txt", "out.csv",
                              "densities.txt", "set.txt")}
        spec = inputs.model_spec(rng, cells, 3, 2)
        inputs.write_model(spec, files["model.json"])
        policies = {"pi.txt": inputs.stationary_policy(rng, spec),
                    "phi0.txt": inputs.deterministic_policy(rng, spec),
                    "phi1.txt": inputs.deterministic_policy(rng, spec)}
        for name, (points, values) in policies.items():
            inputs.write_policy(points, values, files[name])
        vs = inputs.vector_spec(measure_cells)
        inputs.write_densities(vs, files["densities.txt"])
        target = rng.uniform(0.2, 0.8) * (vs.densities.T @ vs.masses)
        return spec, files, policies, (vs, target)

    def _op(self, item) -> Op:
        spec, files, policies, (vs, target), command = item
        rmax = float(np.abs(spec.rewards).max())
        out = files["set.txt"] if command == "lyapunov-find" else files["out.csv"]
        if command == "lyapunov-find":
            argv = ["lyapunov", "find", files["densities.txt"], *map(repr, target.tolist()),
                    "--tol", repr(self.find_tol), "--out", out]
        elif command == "path":
            argv = ["path", files["model.json"], files["phi0.txt"], files["phi1.txt"],
                    "--grid", str(self.grid), "--out", out]
            expected = [ref.evaluate(spec, p, ref.one_hot(a, spec.actions))
                        for p, a in (policies["phi0.txt"], policies["phi1.txt"])]
        else:
            policy = self.policy_of[command]
            argv = ["evaluate", files["model.json"], files[policy], "--out", out]
            points, values = policies[policy]
            probs = values if values.ndim == 2 else ref.one_hot(values, spec.actions)
            expected = [ref.evaluate(spec, points, probs)]

        def call():
            if os.path.exists(out):
                os.remove(out)
            report = io.StringIO()
            with contextlib.redirect_stdout(report):
                code = cli.main(argv)
            table = _read_table(out, command != "lyapunov-find") if code == 0 else None
            return code, report.getvalue(), table

        def check(result):
            code, report, table = result
            if code != 0:
                return float("inf"), 0.0, f"exit code {code}"
            if command == "lyapunov-find":
                # `lyapunov find` promises a Euclidean miss of at most tol; the
                # allowance covers rounding between two exact integrators
                intervals = [tuple(row) for row in table]
                bound = self.find_tol + 1e-12
                reason = ref.check_interval_set(intervals)
                if reason:
                    return float("inf"), bound, reason
                residual = float(np.linalg.norm(ref.integrate(vs, intervals) - target))
                return residual, bound, None if residual <= bound else "set misses the target"
            if command == "path":
                if table.shape[0] != self.grid:
                    return float("inf"), 0.0, f"{table.shape[0]} path rows"
                modulus = _report_value(report, "tv_modulus_step")
                excess = float(np.max(table[1:, -1])) - (modulus + 2.0 * CLI_TOL)
                if excess > 0.0 or table[0, -1] != 0.0:
                    return excess, 0.0, "d_tv_prev exceeds the certified modulus"
                got = [table[0, 1:-1], table[-1, 1:-1]]
                trunc = CLI_TOL
            else:
                got = [table[0]]
                trunc = _report_value(report, "truncation_error")
            residual, bound = 0.0, 0.0
            for v, v_ref in zip(got, expected):
                residual = max(residual, float(np.max(np.abs(v - v_ref))))
                bound = max(bound, trunc * rmax + ROUNDING * (1.0 + float(np.max(np.abs(v_ref)))))
            return residual, bound, None if residual <= bound else "value misses the reference"

        cells = len(vs.masses) if command == "lyapunov-find" else spec.shape[0]
        return Op({"command": command, "cells": cells}, call, check)

    def corrupt(self, k, result):
        """A check that item k's output must fail: an `evaluate` output against
        its policy with the longest interval's probabilities rotated, or a
        `lyapunov find` set against its target shifted by 10 tol."""
        spec, files, policies, (vs, target), command = self.items[k]
        if command == "lyapunov-find":
            shifted = target + 10.0 * self.find_tol / np.sqrt(target.size)
            return self._op((spec, files, policies, (vs, shifted), command)).check, result
        policy = self.policy_of[command]
        points, values = policies[policy]
        probs = values if values.ndim == 2 else ref.one_hot(values, spec.actions)
        probs = probs.copy()
        i = int(np.argmax(np.diff(points)))
        probs[i] = np.roll(probs[i], 1)
        wrong = dict(policies, **{policy: (points, probs)})
        return self._op((spec, files, wrong, (vs, target), command)).check, result


WORKLOADS = {w.name: w for w in (DerandomizeSmall, CliEvaluatePath)}
