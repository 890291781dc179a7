"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from atomless_mdp.cli import load_densities_file, main
from atomless_mdp.lyapunov import range_hull
from atomless_mdp.model import builtin, model_to_doc, random_model, save_model_file
from atomless_mdp_cli import THREAD_VARIABLES


@pytest.fixture()
def onestep_model(tmp_path):
    path = tmp_path / "model.json"
    save_model_file(builtin("unit-interval-onestep"), path)
    return path


def write_policy(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text("".join(f"{lo} {hi} {rest}\n" for lo, hi, rest in rows))
    return path


def run(*argv, capsys=None):
    code = main([str(a) for a in argv])
    return code


def test_validate_ok(onestep_model, capsys):
    assert run("validate", onestep_model) == 0
    out = capsys.readouterr().out
    assert "model valid" in out
    assert "sha256" in out


def test_validate_broken_row_sum(tmp_path, capsys):
    doc = model_to_doc(builtin("unit-interval-onestep"))
    doc["kernel"][0][0]["absorb"] = 0.9
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert run("validate", path) == 2
    err = capsys.readouterr().err
    assert "kernel[0][0]" in err


@pytest.mark.parametrize("field", ["beta", "grid", "absorb", "rewards"])
def test_validate_rejects_a_boolean_or_string_number_exits_2(tmp_path, capsys, field):
    # each of these once validated, read through float()
    doc = model_to_doc(builtin("unit-interval-onestep"))
    if field == "beta":
        doc.update(kind="discounted", beta=False)
    elif field == "grid":
        doc["grid"] = ["0", "1"]
    elif field == "absorb":
        doc["kernel"][0][0]["absorb"] = "1.0"
    else:
        doc["rewards"][0][0] = [True]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run("validate", path) == 2
    assert "validation error: " in capsys.readouterr().err


def test_validate_rejects_nan_grid_breakpoint(tmp_path, capsys):
    doc = model_to_doc(random_model(3, 2, 1, seed=1))
    doc["grid"][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert run("validate", path) == 2
    assert "validation error: grid: " in capsys.readouterr().err


def test_missing_file_is_io_error(tmp_path):
    assert run("validate", tmp_path / "nope.json") == 4


def test_certify_onestep(onestep_model, capsys):
    assert run("certify", onestep_model) == 0
    out = capsys.readouterr().out
    assert "L: 1" in out


def test_certify_truncated_chain(tmp_path, capsys):
    chain_path = tmp_path / "chain.json"
    assert run("builtin", "doubling-corridor:6", "--out", chain_path) == 0
    assert run("certify", chain_path) == 0
    out = capsys.readouterr().out
    assert "truncation only" in out
    assert "L: 64" in out  # longest corridor dominates the truncated bound


@pytest.mark.parametrize("depth", [2.7, True, "12", None, [3], -1, 17, 1000, 1e300], ids=repr)
def test_chain_depth_must_be_an_integer_in_range(tmp_path, capsys, depth):
    # 2.7, true and "12" once certified as depths 2, 1 and 12; 1000 never returned
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"kind": "discrete-chain", "depth": depth}))
    assert run("certify", path) == 2
    assert f"validation error: {path}: depth: " in capsys.readouterr().err


@pytest.mark.parametrize("depth", [3, 3.0], ids=repr)
def test_chain_depth_accepts_an_integral_number(tmp_path, capsys, depth):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"kind": "discrete-chain", "depth": depth}))
    assert run("certify", path) == 0
    assert "L: 8" in capsys.readouterr().out


def test_evaluate_writes_csv(onestep_model, tmp_path, capsys):
    policy = write_policy(tmp_path, "phi.txt", [(0.0, 1.0, "1")])
    out = tmp_path / "perf.csv"
    assert run("evaluate", onestep_model, policy, "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "v_1"
    assert float(lines[1]) == pytest.approx(1.0)


def test_evaluate_stationary_policy(onestep_model, tmp_path):
    policy = write_policy(tmp_path, "pi.txt", [(0.0, 1.0, "0.25 0.75")])
    out = tmp_path / "perf.csv"
    assert run("evaluate", onestep_model, policy, "--out", out) == 0
    assert float(out.read_text().splitlines()[1]) == pytest.approx(0.75)


def test_path_csv_grid_eleven(onestep_model, tmp_path):
    phi0 = write_policy(tmp_path, "phi0.txt", [(0.0, 1.0, "0")])
    phi1 = write_policy(tmp_path, "phi1.txt", [(0.0, 1.0, "1")])
    out = tmp_path / "path.csv"
    assert run("path", onestep_model, phi0, phi1, "--grid", 11, "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,v_1,d_tv_prev"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx(np.linspace(0, 1, 11).tolist(), abs=1e-9)


def test_path_tv_column_within_modulus(onestep_model, tmp_path):
    from atomless_mdp.derandomize import make_context, tv_modulus
    from atomless_mdp.model import DeterministicPolicy, load_model_file

    phi0 = write_policy(tmp_path, "phi0.txt", [(0.0, 1.0, "0")])
    phi1 = write_policy(tmp_path, "phi1.txt", [(0.0, 1.0, "1")])
    out = tmp_path / "path.csv"
    assert run("path", onestep_model, phi0, phi1, "--grid", 11, "--out", out) == 0
    model = load_model_file(onestep_model)
    ctx = make_context(model, DeterministicPolicy(model.grid, [0]),
                       DeterministicPolicy(model.grid, [1]))
    bound = tv_modulus(ctx, 0.1)
    rows = out.read_text().strip().splitlines()[1:]
    for row in rows[1:]:
        assert float(row.split(",")[-1]) <= bound + 1e-9


def test_mix_impossible_tolerance_exits_3(tmp_path, capsys, monkeypatch):
    # the miss is certified after one realization, not after a retry ladder
    from atomless_mdp.cli import save_policy_file
    from atomless_mdp.model import (
        load_model_file,
        random_deterministic_policy,
        random_model,
    )
    from tests.test_derandomize import count_realizations

    calls = count_realizations(monkeypatch)

    model_path = tmp_path / "m.json"
    save_model_file(random_model(5, 3, 2, seed=3), model_path)
    model = load_model_file(model_path)
    rng = np.random.default_rng(0)

    p0, p1 = tmp_path / "p0.txt", tmp_path / "p1.txt"
    save_policy_file(random_deterministic_policy(model, rng), p0)
    save_policy_file(random_deterministic_policy(model, rng), p1)
    code = run("mix", model_path, p0, p1, 0.5, "--tol", 1e-16, "--out", tmp_path / "x")
    assert code == 3
    assert "certified failure" in capsys.readouterr().out
    assert len(calls) == 1


def test_mix_undecided_membership_answer_exits_3(tmp_path, capsys, monkeypatch):
    # a membership answer whose distance bound exceeds its tolerance while no
    # queried direction separates (lower bound 0) is neither "inside" nor
    # "outside": the mix raises CertifiedFailure instead of searching on
    # with a direction that certifies nothing, and the command exits 3
    import importlib

    from atomless_mdp.cli import save_policy_file
    from atomless_mdp.derandomize import DistanceResult, mix_pair
    from atomless_mdp.errors import CertifiedFailure
    from atomless_mdp.model import load_model_file, random_deterministic_policy

    module = importlib.import_module("atomless_mdp.derandomize")
    original, forced = module.distance_to_performance_set, []

    def undecided(*args, decide=None, **kwargs):
        res = original(*args, decide=decide, **kwargs)
        if decide is None or res.g <= decide or forced:
            return res
        forced.append(res.g)
        return DistanceResult(res.g, 0.0, res.weights, res.direction, res.projection,
                              res.vertices)

    monkeypatch.setattr(module, "distance_to_performance_set", undecided)
    model_path = tmp_path / "m.json"
    save_model_file(random_model(5, 3, 2, seed=3), model_path)
    model = load_model_file(model_path)
    rng = np.random.default_rng(0)
    phi0, phi1 = random_deterministic_policy(model, rng), random_deterministic_policy(model, rng)
    with pytest.raises(CertifiedFailure, match="no separating direction"):
        mix_pair(model, phi0, phi1, 0.5)
    assert len(forced) == 1

    p0, p1 = tmp_path / "p0.txt", tmp_path / "p1.txt"
    save_policy_file(phi0, p0)
    save_policy_file(phi1, p1)
    forced.clear()
    assert run("mix", model_path, p0, p1, 0.5, "--out", tmp_path / "x") == 3
    assert "certified failure" in capsys.readouterr().out
    assert len(forced) == 1


def test_path_endpoints_match(onestep_model, tmp_path):
    phi0 = write_policy(tmp_path, "phi0.txt", [(0.0, 1.0, "0")])
    phi1 = write_policy(tmp_path, "phi1.txt", [(0.0, 1.0, "1")])
    out = tmp_path / "path.csv"
    assert run("path", onestep_model, phi0, phi1, "--grid", 5, "--out", out) == 0
    lines = out.read_text().strip().splitlines()[1:]
    assert float(lines[0].split(",")[1]) == pytest.approx(0.0, abs=1e-12)
    assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)


def test_mix_writes_policy_with_breakpoint_half(onestep_model, tmp_path, capsys):
    phi0 = write_policy(tmp_path, "phi0.txt", [(0.0, 1.0, "0")])
    phi1 = write_policy(tmp_path, "phi1.txt", [(0.0, 1.0, "1")])
    prefix = tmp_path / "mixed"
    assert run("mix", onestep_model, phi0, phi1, 0.5, "--out", prefix) == 0
    rows = (tmp_path / "mixed.policy.txt").read_text().strip().splitlines()
    breaks = sorted({float(tok) for row in rows for tok in row.split()[:2]})
    assert breaks == pytest.approx([0.0, 0.5, 1.0])
    cert = json.loads((tmp_path / "mixed.cert.json").read_text())
    assert cert["error"] <= 1e-6


def test_derandomize_deterministic_is_canonical_fixed_point(onestep_model, tmp_path):
    policy = write_policy(tmp_path, "phi.txt", [(0.0, 0.5, "1"), (0.5, 1.0, "1")])
    p1 = tmp_path / "first"
    p2 = tmp_path / "second"
    assert run("derandomize", onestep_model, policy, "--out", p1) == 0
    out1 = (tmp_path / "first.policy.txt").read_bytes()
    assert run("derandomize", onestep_model, tmp_path / "first.policy.txt", "--out", p2) == 0
    out2 = (tmp_path / "second.policy.txt").read_bytes()
    assert out1 == out2  # canonical form is a byte-identical fixed point
    assert out1.decode().strip() == "0 1 1"


def test_derandomize_coin_flip(onestep_model, tmp_path):
    policy = write_policy(tmp_path, "pi.txt", [(0.0, 1.0, "0.5 0.5")])
    prefix = tmp_path / "derand"
    assert run("derandomize", onestep_model, policy, "--out", prefix, "--tol", 1e-8) == 0
    cert = json.loads((tmp_path / "derand.cert.json").read_text())
    assert cert["error"] <= 1e-8
    assert cert["achieved"][0] == pytest.approx(0.5, abs=1e-8)


def test_lyapunov_find_linear_density(tmp_path, capsys):
    # densities (1, 2x) as cell averages on 32 cells, Lebesgue base
    rows = []
    edges = np.linspace(0, 1, 33)
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows.append(f"{float(lo)!r} {float(hi)!r} {float(hi - lo)!r} 1.0 {float(lo + hi)!r}\n")
    dens = tmp_path / "dens.txt"
    dens.write_text("".join(rows))
    out = tmp_path / "set.txt"
    assert run("lyapunov", "find", dens, 0.5, 0.5, "--tol", 1e-6, "--out", out) == 0
    report = capsys.readouterr().out
    assert "residual" in report
    intervals = [tuple(map(float, line.split())) for line in out.read_text().splitlines()]
    leb = sum(hi - lo for lo, hi in intervals)
    quad = sum(hi**2 - lo**2 for lo, hi in intervals)
    # direct integration of the representation hits the target
    assert leb == pytest.approx(0.5, abs=2e-6)


def test_lyapunov_find_rescales_base_masses_that_miss_one(tmp_path):
    # base masses whose total misses 1 by more than the measure's 1e-12 are
    # rescaled, at any miss
    dens = tmp_path / "dens.txt"
    out = tmp_path / "set.txt"
    for mass in ("0.5000000005", "0.6"):
        dens.write_text(f"0 0.5 {mass} 1 0\n0.5 1 0.5 0 1\n")
        assert run("lyapunov", "find", dens, 0.2, 0.2, "--out", out) == 0, mass
    base = load_densities_file(dens, dens.read_bytes()).base
    assert base.masses.tolist() == [0.6 / 1.1, 0.5 / 1.1]


def test_lyapunov_hull_csv(tmp_path):
    dens = tmp_path / "dens.txt"
    dens.write_text("0.0 0.5 0.5 1.0 0.2\n0.5 1.0 0.5 0.3 1.4\n")
    out = tmp_path / "hull.csv"
    assert run("lyapunov", "hull", dens, "--grid", 32, "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "b_1,b_2,support,vertex_1,vertex_2"
    hull = range_hull(load_densities_file(dens, dens.read_bytes()), direction_count=32)
    assert len(lines) == len(hull.directions) + 1 <= 33


@pytest.mark.parametrize("grid", [4, 10, 360])
def test_lyapunov_hull_is_exact_on_two_cells(tmp_path, capsys, grid):
    # the range of two cells is a parallelogram: 4 axis queries, 2 normals of
    # the diagonal they find, then its 4 edges, each confirmed by the oracle
    dens = tmp_path / "dens.txt"
    dens.write_text("0.0 0.5 0.5 1.0 0.2\n0.5 1.0 0.5 0.3 1.4\n")
    out = tmp_path / "hull.csv"
    assert run("lyapunov", "hull", dens, "--grid", grid, "--out", out) == 0
    report = capsys.readouterr().out
    gap = float(report.split("gap: ")[1].split()[0])
    rows = out.read_text().strip().splitlines()[1:]
    hull = range_hull(load_densities_file(dens, dens.read_bytes()), direction_count=grid)
    assert len(rows) == len(hull.directions) == min(grid, 10)
    if grid >= 10:
        assert gap <= 1e-12


def test_transform_discount(tmp_path, capsys):
    from tests.test_model import one_cell_discounted

    src = tmp_path / "disc.json"
    save_model_file(one_cell_discounted(0.5), src)
    out = tmp_path / "abs.json"
    assert run("transform", "discount", src, "--out", out) == 0
    assert run("certify", out) == 0
    assert "L: 2" in capsys.readouterr().out


def test_transform_weight(tmp_path):
    src = tmp_path / "m.json"
    save_model_file(builtin("lyapunov-onestep"), src)
    weights = tmp_path / "w.txt"
    weights.write_text("0.0 1.0 2.0\n")
    out = tmp_path / "weighted.json"
    assert run("transform", "weight", src, weights, "--out", out) == 0
    assert run("validate", out) == 0


def test_transform_weight_rows_must_not_cut_grid_cells(tmp_path, capsys):
    from atomless_mdp.model import load_model_file, weighted_transform

    src = tmp_path / "m.json"
    save_model_file(random_model(3, 2, 1, seed=1), src)
    model = load_model_file(src)
    g1, g2 = map(float, model.grid.points[1:3])
    weights, out = tmp_path / "w.txt", tmp_path / "o.json"
    # rows on grid breakpoints: one weight per cell, as weighted_transform takes it
    weights.write_text(f"0.0 {g1!r} 1.0\n{g1!r} 1.0 1.0001\n")
    assert run("transform", "weight", src, weights, "--out", out) == 0
    expected = model_to_doc(weighted_transform(model, np.array([1.0, 1.0001, 1.0001])))
    assert json.loads(out.read_text()) == expected
    # a row boundary inside cell 1: the cell's weight is not constant
    mid = 0.5 * (g1 + g2)
    weights.write_text(f"0.0 {mid!r} 1.0\n{mid!r} 1.0 1.0001\n")
    capsys.readouterr()
    assert run("transform", "weight", src, weights, "--out", out) == 2
    assert f"w.txt:2: row starts at {mid!r}, inside grid cell 1" in capsys.readouterr().err


@pytest.mark.parametrize("rows, where", [
    ("0.0 0.5 2.0\n0.5 1.0\n", "w.txt:2: "),
    ("0.0 0.5 2.0\n0.5 1.0 heavy\n", "w.txt:2: non-numeric entry"),
], ids=["short row", "non-numeric weight"])
def test_transform_weight_malformed_row_exits_2(tmp_path, capsys, rows, where):
    src = tmp_path / "m.json"
    save_model_file(builtin("lyapunov-onestep"), src)
    weights = tmp_path / "w.txt"
    weights.write_text(rows)
    assert run("transform", "weight", src, weights, "--out", tmp_path / "o.json") == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["policy", "densities", "weights"])
def test_tiling_files_share_one_rule(tmp_path, capsys, kind):
    # policy, densities and weights files: the breakpoints are 0, the starts
    # of the second to last rows, and 1, so a first row that starts within
    # the 1e-9 tiling allowance of 0 starts at 0; a row narrower than
    # MERGE_TOL is an error at its line
    from atomless_mdp.cli import load_densities_file, load_policy_file
    from atomless_mdp.model import load_model_file, weighted_transform

    src, out = tmp_path / "m.json", tmp_path / "o.json"
    save_model_file(builtin("lyapunov-onestep"), src)
    model = load_model_file(src)
    path = tmp_path / f"{kind}.txt"
    values = {"policy": "1", "densities": "0.5 1.0 2.0", "weights": "2.0"}[kind]
    argv = {"policy": ("evaluate", src, path),
            "densities": ("lyapunov", "find", path, 0.5, 1.0),
            "weights": ("transform", "weight", src, path, "--out", out)}[kind]

    def write(*starts):
        ends = [*starts[1:], 1.0]
        path.write_text("".join(f"{lo!r} {hi!r} {values}\n" for lo, hi in zip(starts, ends)))
        capsys.readouterr()
        return run(*argv)

    assert write(5e-10, 0.5) == 0
    if kind == "weights":
        expected = model_to_doc(weighted_transform(model, np.full(model.cell_count, 2.0)))
        assert json.loads(out.read_text()) == expected
    else:
        data = path.read_bytes()
        part = (load_policy_file(path, model, data).partition if kind == "policy"
                else load_densities_file(path, data).base.partition)
        assert part.points.tolist() == [0.0, 0.5, 1.0]
    assert write(0.0, 0.5, 0.5 + 5e-13) == 2
    assert f"{kind}.txt:2: interval narrower than 1e-12" in capsys.readouterr().err


def test_lyapunov_ragged_densities_row_exits_2(tmp_path, capsys):
    dens = tmp_path / "dens.txt"
    dens.write_text("0.0 0.5 0.5 1.0 0.2\n0.5 1.0 0.5 0.3\n")
    assert run("lyapunov", "find", dens, 0.5, 0.5, "--out", tmp_path / "set.txt") == 2
    assert "dens.txt:2: " in capsys.readouterr().err


def test_builtin_roundtrip(tmp_path):
    out = tmp_path / "m.json"
    assert run("builtin", "lyapunov-onestep", "--out", out) == 0
    assert run("validate", out) == 0
    doc = json.loads(out.read_text())
    assert model_to_doc(builtin("lyapunov-onestep")) == doc


def test_builtin_random_seeded_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run("builtin", "random:4x2x2", "--seed", 7, "--out", out1) == 0
    assert run("builtin", "random:4x2x2", "--seed", 7, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reports_are_deterministic_modulo_timing(onestep_model, tmp_path, capsys):
    policy = write_policy(tmp_path, "phi.txt", [(0.0, 1.0, "1")])
    out = tmp_path / "perf.csv"
    run("evaluate", onestep_model, policy, "--out", out)
    first = out.read_bytes()
    run("evaluate", onestep_model, policy, "--out", out)
    assert out.read_bytes() == first


def write_doc(tmp_path, mutate):
    doc = model_to_doc(builtin("unit-interval-onestep"))
    mutate(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


NON_FINITE = {
    "kernel": (lambda d: d["kernel"][0][0].update(to=[[0.0, 1.0, float("nan")]]), "kernel[0][0]"),
    "absorb": (lambda d: d["kernel"][0][1].update(absorb=float("nan")), "kernel[0][1]"),
    "initial": (lambda d: d.update(initial=[[0.0, 1.0, float("nan")]]), "initial"),
}


@pytest.mark.parametrize("field", sorted(NON_FINITE))
def test_validate_rejects_non_finite_mass(tmp_path, capsys, field):
    mutate, path = NON_FINITE[field]
    assert run("validate", write_doc(tmp_path, mutate)) == 2
    assert f"{path}: masses must be finite" in capsys.readouterr().err


MALFORMED = {
    "kernel entry is a list": (lambda d: d["kernel"][0].__setitem__(0, [1.0]), "kernel[0][0]"),
    "reward entry is a scalar": (lambda d: d["rewards"][0].__setitem__(0, 2.0), "rewards[0][0]"),
    "kernel cell is an int": (lambda d: d["kernel"].__setitem__(0, 3), "kernel[0]"),
    "available entry is an int": (lambda d: d["available"].__setitem__(0, 1), "available[0]"),
    "kernel rows are not triples": (
        lambda d: d["kernel"][0][0].update(to=[[0.0, 1.0]]), "kernel[0][0].to"),
    "endpoints chain within MERGE_TOL": (
        lambda d: d["kernel"][0][0].update(
            to=[[0.0, 0.5, 0.1], [0.5, 0.5 + 0.8e-12, 0.1], [0.5 + 0.8e-12, 0.5 + 1.6e-12, 0.1]],
            absorb=0.7),
        "kernel[0][0].to"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_validate_malformed_document_exits_2(tmp_path, capsys, case):
    mutate, path = MALFORMED[case]
    assert run("validate", write_doc(tmp_path, mutate)) == 2
    assert f"validation error: {path}: " in capsys.readouterr().err


def test_validate_boolean_action_count_exits_2(tmp_path, capsys):
    # it once exited 5, an internal error, from np.zeros
    def one_action(doc):
        doc.update(actions=True, available=[[0]] * len(doc["available"]))
        for cell in ("kernel", "rewards"):
            doc[cell] = [entries[:1] for entries in doc[cell]]

    assert run("validate", write_doc(tmp_path, one_action)) == 2
    assert "validation error: actions: expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("data", [b'{"kind": "absorbing", ', b"\xff\xfe\x00\xd8\x80"],
                         ids=["truncated", "not text"])
def test_validate_invalid_json_exits_2(tmp_path, capsys, data):
    path = tmp_path / "model.json"
    path.write_bytes(data)
    assert run("validate", path) == 2
    assert f"validation error: {path}: invalid JSON: " in capsys.readouterr().err


def test_validate_reads_utf16_document(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_bytes(json.dumps(model_to_doc(builtin("unit-interval-onestep"))).encode("utf-16"))
    assert run("validate", path) == 0
    assert "model valid" in capsys.readouterr().out


def chain_grid_model(tmp_path):
    """A one-step model on the grid [0, 0.5, 0.5 + 1.8e-12, 1], whose two inner
    breakpoints are farther apart than MERGE_TOL."""
    from atomless_mdp.measure import PieceMeasure, StatePartition
    from atomless_mdp.model import AtomlessMDP

    grid = StatePartition([0.0, 0.5, 0.5 + 1.8e-12, 1.0])
    model = AtomlessMDP(grid, 2, [(0, 1)] * 3, np.zeros((3, 2, 3)), np.ones((3, 2)),
                        np.arange(12.0).reshape(3, 2, 2), PieceMeasure(grid, grid.widths))
    path = tmp_path / "chain.json"
    save_model_file(model, path)
    return path


@pytest.mark.parametrize("cut, code", [(0.5 + 0.9e-12, 2), (0.5 + 0.5e-12, 0)],
                         ids=["chain", "lone near-duplicate"])
def test_breakpoint_chain_is_bad_input(tmp_path, capsys, cut, code):
    # a policy breakpoint within MERGE_TOL of both grid breakpoints chains
    # them, and the merged refinement refines neither the grid nor the policy
    model = chain_grid_model(tmp_path)
    phi0 = write_policy(tmp_path, "phi0.txt", [(0.0, cut, "0"), (cut, 1.0, "1")])
    phi1 = write_policy(tmp_path, "phi1.txt", [(0.0, 1.0, "1")])
    for argv in (("evaluate", model, phi0), ("path", model, phi0, phi1)):
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "out.csv") == code, argv[0]
        if code:
            assert ("validation error: breakpoint 0.5000000000018 is within 1e-12 of another "
                    "breakpoint") in capsys.readouterr().err


def test_policy_file_rejects_non_finite_probability(onestep_model, tmp_path):
    from atomless_mdp.cli import load_policy_file
    from atomless_mdp.errors import ModelFormatError
    from atomless_mdp.model import load_model_file

    policy = write_policy(tmp_path, "pi.txt", [(0.0, 0.5, "0.5 0.5"), (0.5, 1.0, "nan 1.0")])
    with pytest.raises(ModelFormatError, match=r"pi.txt:2: non-finite entry"):
        load_policy_file(policy, load_model_file(onestep_model), policy.read_bytes())
    assert run("evaluate", onestep_model, policy) == 2


@pytest.mark.parametrize("text, max_cols, expected", [
    ("0 0.5 1\n0.5 1 x\n0.5 1 1 1\n", None, "t.txt:2: non-numeric entry"),
    ("0 0.5 1\n0.5 1 1 1\n0.5 1 x\n", None, "t.txt:2: 4 columns, but line 1 has 3"),
    ("0 0.5 1\n0.5 1 inf\n0.5 1 x\n", None, "t.txt:2: non-finite entry"),
    ("0 0.5 1\n0.5 1 x\n0.5 1 nan\n", None, "t.txt:2: non-numeric entry"),
    ("0 0.5 1\n0.5 1 nan\n0.5 1 1 1\n", None, "t.txt:2: non-finite entry"),
    ("0 0.5 1\n0.5 1 1 1\n0.5 1 nan\n", None, "t.txt:2: 4 columns, but line 1 has 3"),
    ("0 0.5 1\n0.5 1 x y\n", None, "t.txt:2: 4 columns, but line 1 has 3"),
    ("0 0.5 1 1\n0.5 1 x\n", 3, "t.txt:1: expected 3 columns, got 4"),
    ("0 0.5\n0.5 1 x\n", None, "t.txt:1: expected at least 3 columns, got 2"),
    ("# head\n\n0 0.5 1\r\n0.5 1 -inf # tail\r0.5 1 x\n", None, "t.txt:4: non-finite entry"),
    ("0 0.5 1\n0.5 1 1e400\n", None, "t.txt:2: non-finite entry"),
], ids=["non-numeric, then columns", "columns, then non-numeric", "non-finite, then non-numeric",
        "non-numeric, then non-finite", "non-finite, then columns", "columns, then non-finite",
        "columns and non-numeric on one line", "too many columns", "too few columns",
        "comments and line endings", "overflow"])
def test_tiling_reports_the_first_bad_line(text, max_cols, expected):
    from atomless_mdp.cli import _tiling
    from atomless_mdp.errors import ModelFormatError

    with pytest.raises(ModelFormatError) as exc:
        _tiling("t.txt", text.encode(), 3, max_cols)
    assert str(exc.value) == expected


def test_tiling_reads_numbers_as_float_does():
    from atomless_mdp.cli import _tiling
    from atomless_mdp.errors import ModelFormatError

    tokens = ["1_000", "+.5", "1E3", " 7", "٣", "-0", "0.1"]
    text = "".join(f"{k / 7!r} {(k + 1) / 7!r} {t}\n" for k, t in enumerate(tokens))
    values = _tiling("t.txt", text.encode(), 3)[1]
    assert values[:, 0].tobytes() == np.array([float(t) for t in tokens]).tobytes()
    for token in ("0x1p3", "1,5", "nan"):
        with pytest.raises(ModelFormatError) as exc:
            _tiling("t.txt", f"0 0.5 1\n0.5 1 {token}\n".encode(), 3)
        message = "non-finite entry" if token == "nan" else "non-numeric entry"
        assert str(exc.value) == f"t.txt:2: {message}"


def test_evaluate_reports_performance_bitwise(tmp_path, capsys):
    from atomless_mdp.cli import load_policy_file, save_policy_file
    from atomless_mdp.model import load_model_file, random_stationary_policy
    from atomless_mdp.occupancy import performance

    model_path = tmp_path / "m.json"
    save_model_file(random_model(6, 3, 2, seed=21), model_path)
    model = load_model_file(model_path)
    policy_path = tmp_path / "pi.txt"
    save_policy_file(random_stationary_policy(model, np.random.default_rng(4)), policy_path)
    out = tmp_path / "perf.csv"
    assert run("evaluate", model_path, policy_path, "--out", out) == 0
    expected = performance(model, load_policy_file(policy_path, model, policy_path.read_bytes()))
    assert [float(x) for x in out.read_text().splitlines()[1].split(",")] == expected.tolist()
    note = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("note: v = "))
    assert [float(x) for x in note.split("=")[1].split()] == expected.tolist()


def test_path_computes_one_occupancy_per_grid_point(tmp_path, monkeypatch):
    import importlib

    from atomless_mdp.cli import save_policy_file
    from atomless_mdp.model import load_model_file, random_deterministic_policy

    model_path = tmp_path / "m.json"
    save_model_file(random_model(6, 3, 2, seed=21), model_path)
    model = load_model_file(model_path)
    rng = np.random.default_rng(8)
    phi0, phi1 = tmp_path / "phi0.txt", tmp_path / "phi1.txt"
    save_policy_file(random_deterministic_policy(model, rng), phi0)
    save_policy_file(random_deterministic_policy(model, rng), phi1)

    occ = importlib.import_module("atomless_mdp.occupancy")
    calls = {"occupancy": [], "evaluate_weights": []}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name].append(1)
            return original(*args, **kwargs)
        return wrapper

    for name in ("occupancy", "evaluate_weights"):
        wrapper = counting(name, getattr(occ, name))
        for module in ("atomless_mdp.occupancy", "atomless_mdp.cli", "atomless_mdp.derandomize"):
            monkeypatch.setattr(importlib.import_module(module), name, wrapper, raising=False)
    assert run("path", model_path, phi0, phi1, "--grid", 5, "--out", tmp_path / "p.csv") == 0
    assert len(calls["occupancy"]) == 5  # one per grid point
    assert len(calls["evaluate_weights"]) == 5 + 1  # one solve each, one for the path's context


def test_derandomize_four_criteria(tmp_path):
    from atomless_mdp.cli import save_policy_file
    from atomless_mdp.model import load_model_file, random_stationary_policy

    model_path = tmp_path / "m.json"
    assert run("builtin", "random:6x3x4", "--seed", 5, "--out", model_path) == 0
    policy = tmp_path / "pi.txt"
    model = load_model_file(model_path)
    save_policy_file(random_stationary_policy(model, np.random.default_rng(3)), policy)
    assert run("derandomize", model_path, policy, "--out", tmp_path / "d") == 0
    assert json.loads((tmp_path / "d.cert.json").read_text())["error"] <= 1e-6


def test_derandomize_below_the_distance_floor_exits_3(tmp_path, capsys):
    from atomless_mdp.cli import save_policy_file
    from atomless_mdp.model import load_model_file, random_stationary_policy

    model_path = tmp_path / "m.json"
    assert run("builtin", "random:7x3x2", "--seed", 7010, "--out", model_path) == 0
    policy = tmp_path / "pi.txt"
    model = load_model_file(model_path)
    save_policy_file(random_stationary_policy(model, np.random.default_rng(10)), policy)
    capsys.readouterr()
    code = run("derandomize", model_path, policy, "--tol", 1e-13, "--out", tmp_path / "d")
    assert code == 3
    assert "certified failure" in capsys.readouterr().out


def test_derandomize_leaves_scipy_unimported(tmp_path):
    # importing scipy.spatial alone costs about 38 MiB of resident memory
    from atomless_mdp.cli import save_policy_file
    from atomless_mdp.model import load_model_file, random_stationary_policy

    model_path = tmp_path / "m.json"
    assert run("builtin", "random:6x3x2", "--seed", 5, "--out", model_path) == 0
    policy = tmp_path / "pi.txt"
    model = load_model_file(model_path)
    save_policy_file(random_stationary_policy(model, np.random.default_rng(3)), policy)
    argv = ["derandomize", str(model_path), str(policy), "--out", str(tmp_path / "d")]
    script = ("import sys\n"
              "from atomless_mdp.cli import main\n"
              f"code = main({argv!r})\n"
              "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.stdout.strip().splitlines()[-1] == "0 []", done.stderr


@pytest.fixture()
def evaluate_inputs(tmp_path):
    """A multi-step model file and a stationary policy file for `evaluate`."""
    from atomless_mdp.cli import save_policy_file
    from atomless_mdp.model import random_stationary_policy

    model = random_model(5, 2, 2, seed=33)
    model_path = tmp_path / "m.json"
    save_model_file(model, model_path)
    policy = tmp_path / "pi.txt"
    save_policy_file(random_stationary_policy(model, np.random.default_rng(1)), policy)
    return model_path, policy


def test_derandomize_certificate_totals_work(evaluate_inputs, tmp_path):
    # the certificate JSON carries the run's work totals, and two identical
    # runs write identical ones
    model, policy = evaluate_inputs
    totals = []
    for name in ("first", "second"):
        assert run("derandomize", model, policy, "--out", tmp_path / name, "--tol", 1e-6) == 0
        cert = json.loads((tmp_path / f"{name}.cert.json").read_text())
        totals.append({k: cert[k] for k in ("membership_tests", "support_calls", "face_steps",
                                            "path_solves")})
    assert totals[0] == totals[1]
    assert all(v > 0 for v in totals[0].values())
    reduce = [e for e in cert["trace"] if e["kind"] == "reduce"]
    assert cert["polish_calls"] == sum(e["polish_calls"] for e in reduce)


def test_input_files_are_read_once_and_hashed_as_parsed(evaluate_inputs, tmp_path,
                                                        monkeypatch, capsys):
    # each input file is opened once per call of main, and the report's
    # digest of it is the SHA-256 of that content, the bytes that were parsed
    import builtins
    import hashlib
    from collections import Counter

    from atomless_mdp.cli import save_policy_file
    from atomless_mdp.model import load_model_file, random_deterministic_policy

    model_path, policy = evaluate_inputs
    model = load_model_file(model_path)
    rng = np.random.default_rng(4)
    phi0, phi1 = tmp_path / "phi0.txt", tmp_path / "phi1.txt"
    for path in (phi0, phi1):
        save_policy_file(random_deterministic_policy(model, rng), path)
    dens = tmp_path / "dens.txt"
    dens.write_text("0.0 0.5 0.5 1.0 0.2\n0.5 1.0 0.5 0.3 1.4\n")
    weights = tmp_path / "w.txt"
    weights.write_text("0.0 1.0 2.0  # one weight for every cell\n")
    commands = [            # (argv, its input files)
        (["evaluate", model_path, policy], [model_path, policy]),
        (["path", model_path, phi0, phi1, "--grid", 3], [model_path, phi0, phi1]),
        (["mix", model_path, phi0, phi1, 0.5, "--out", tmp_path / "mix"], [model_path, phi0, phi1]),
        (["derandomize", model_path, policy, "--out", tmp_path / "der"], [model_path, policy]),
        (["lyapunov", "hull", dens, "--grid", 8], [dens]),
        (["lyapunov", "find", dens, 0.5, 0.4], [dens]),
        (["transform", "weight", model_path, weights, "--out", tmp_path / "weighted.json"],
         [model_path, weights]),
    ]
    opened = Counter()
    original = builtins.open

    def counting(file, *args, **kwargs):
        opened[str(file)] += 1
        return original(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    for argv, inputs in commands:
        opened.clear()
        capsys.readouterr()
        assert run(*argv) == 0, argv
        digests = dict(line.split()[1:] for line in capsys.readouterr().out.splitlines()
                       if line.startswith("input: "))
        assert sorted(digests) == sorted(map(str, inputs)), argv
        for path in map(str, inputs):
            with original(path, "rb") as fh:
                content = fh.read()
            assert opened[path] == 1, (argv, path)
            assert digests[path] == "sha256:" + hashlib.sha256(content).hexdigest()[:16]


def test_text_files_parse_from_their_bytes_with_any_line_ending(onestep_model, tmp_path, capsys):
    # rows end at \n, \r\n or \r as in text mode, errors name the file's
    # line, and bytes that are not UTF-8 are bad input
    policy = tmp_path / "phi.txt"
    for end in ("\n", "\r\n", "\r"):
        policy.write_bytes(f"# header{end}0 0.5 0{end}{end}0.5 1 1{end}".encode())
        assert run("evaluate", onestep_model, policy) == 0, repr(end)
        policy.write_bytes(f"0 0.5 0{end}# note{end}0.5 1 x{end}".encode())
        assert run("evaluate", onestep_model, policy) == 2
        assert f"{policy}:3: non-numeric entry" in capsys.readouterr().err
    policy.write_bytes(b"0 1 \xff\n")
    assert run("evaluate", onestep_model, policy) == 2
    assert f"{policy}: not a UTF-8 text file" in capsys.readouterr().err


def test_main_builds_its_parser_once(onestep_model, monkeypatch):
    # the parser is built once per process, not on every call of main
    import argparse

    from atomless_mdp import cli

    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    assert run("validate", onestep_model) == 0
    assert run("validate", onestep_model) == 0
    assert built.count("atomless-mdp") == 1


def _raise(exc):
    def raising(*args, **kwargs):
        raise exc
    return raising


@pytest.mark.parametrize("cause, code, stderr", [
    ("ok", 0, ""),
    ("probabilities", 2, "validation error: "),
    ("unabsorbed", 3, ""),
    ("missing", 4, "I/O error: "),
    ("singular", 5, "internal error: LinAlgError: "),
    ("internal ValueError", 5, "internal error: ValueError: "),
    ("path unavailable action", 2, "validation error: "),
])
def test_exit_code_matches_cause(evaluate_inputs, tmp_path, capsys, monkeypatch,
                                 cause, code, stderr):
    import importlib

    model_path, policy = evaluate_inputs
    occ = importlib.import_module("atomless_mdp.occupancy")
    argv = ["evaluate", model_path, policy]
    if cause == "path unavailable action":
        # action 0 is in range but not available in the model's second cell
        policy.write_text("0 1 0\n")
        argv = ["path", model_path, policy, policy, "--grid", 3]
    elif cause == "probabilities":
        # rows that do not sum to 1 fail the policy's constructor: bad input
        policy.write_text("0 0.5 0.5 0.25\n0.5 1 1 0\n")
        stderr += f"{policy}: "
    elif cause == "unabsorbed":
        # an action that never leaves its cell: no absorption certificate
        doc = model_to_doc(builtin("unit-interval-onestep"))
        doc["kernel"][0][0] = {"to": [[0.0, 1.0, 1.0]], "absorb": 0.0}
        model_path.write_text(json.dumps(doc))
        policy.write_text("0 1 0\n")
    elif cause == "missing":
        argv[2] = tmp_path / "nope.txt"
    elif cause == "singular":
        monkeypatch.setattr(occ.np.linalg, "solve", _raise(np.linalg.LinAlgError("Singular matrix")))
    elif cause == "internal ValueError":
        monkeypatch.setattr(importlib.import_module("atomless_mdp.cli"), "evaluate_weights",
                            _raise(ValueError("not about the input")))
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith(stderr) if stderr else err == ""


@pytest.mark.parametrize("argv", [
    ["mix", "{m}", "{p}", "{p}", "1.5", "--out", "{o}"],
    ["evaluate", "{m}", "{p}", "--tol", "0"],
    ["lyapunov", "find", "{d}", "0.5", "x"],
    ["lyapunov", "find", "{d}", "nan", "0.4"],
    ["lyapunov", "find", "{d}", "inf", "0.4"],
    ["lyapunov", "hull", "{d}", "--grid", "0"],
    ["lyapunov", "hull", "{d}", "--grid", "-3"],
    ["path", "{m}", "{p}", "{p}", "--grid", "-4"],
    ["path", "{m}", "{p}", "{p}", "--grid", "1"],
], ids=["lambda", "tol", "target", "target-nan", "target-inf", "hull-grid-0",
        "hull-grid-negative", "path-grid-negative", "path-grid-1"])
def test_bad_arguments_exit_2(evaluate_inputs, tmp_path, argv):
    model_path, policy = evaluate_inputs
    names = {"m": model_path, "p": policy, "o": tmp_path / "o", "d": tmp_path / "d.txt"}
    with pytest.raises(SystemExit) as exc:
        main([a.format(**names) for a in argv])
    assert exc.value.code == 2


def test_wrong_target_size_and_builtin_size_exit_2(tmp_path, capsys):
    dens = tmp_path / "dens.txt"
    dens.write_text("0.0 0.5 0.5 1.0 0.2\n0.5 1.0 0.5 0.3 1.0\n")
    assert run("lyapunov", "find", dens, 0.5, "--out", tmp_path / "set.txt") == 2
    assert "validation error: target: expected 2 values" in capsys.readouterr().err
    for name in ("random:6x0x2", "random:6xtwox2", "doubling-corridor:-1",
                 "doubling-corridor:1000"):
        assert run("builtin", name, "--out", tmp_path / "b.json") == 2
        assert "validation error: builtin: " in capsys.readouterr().err
    chain = tmp_path / "chain.json"
    assert run("builtin", "doubling-corridor:3", "--out", chain) == 0
    policy = tmp_path / "phi.txt"
    policy.write_text("0 1 0\n")
    assert run("evaluate", chain, policy) == 2
    assert "a discrete chain supports only validate and certify" in capsys.readouterr().err


def test_console_entry_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # the console entry point pins BLAS to one thread unless the caller set
    # the thread variables, so a run with them unset writes the same bytes as
    # a run with them set to 1; calling cli.main with them unset on two or
    # more CPUs moved a threshold of this 256-cell derandomize
    from atomless_mdp.cli import save_policy_file
    from atomless_mdp.model import random_stationary_policy

    model = builtin("random:256x3x2", seed=1)
    model_path, policy = tmp_path / "m.json", tmp_path / "pi.txt"
    save_model_file(model, model_path)
    save_policy_file(random_stationary_policy(model, np.random.default_rng(1)), policy)
    src = Path(__file__).resolve().parents[1] / "src"
    unset = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    outputs = []
    for name, env in (("unset", unset), ("one", {**unset, **dict.fromkeys(THREAD_VARIABLES, "1")})):
        prefix = tmp_path / name
        done = subprocess.run(
            [sys.executable, str(src / "atomless_mdp_cli.py"), "derandomize", str(model_path),
             str(policy), "--out", str(prefix), "--tol", "1e-6"],
            capture_output=True, text=True, env={**env, "PYTHONPATH": str(src)}, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "blas: " in done.stdout and "OPENBLAS_NUM_THREADS=1" in done.stdout
        outputs.append([Path(f"{prefix}.{ext}").read_bytes() for ext in ("policy.txt", "cert.json")])
    assert outputs[0] == outputs[1]
