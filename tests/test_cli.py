"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from atomless_mdp.cli import main
from atomless_mdp.model import builtin, model_to_doc, random_model, save_model_file


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


def test_mix_impossible_tolerance_exits_3(tmp_path, capsys):
    from atomless_mdp.cli import save_policy_file
    from atomless_mdp.model import (
        load_model_file,
        random_deterministic_policy,
        random_model,
    )

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


def test_lyapunov_hull_csv(tmp_path):
    dens = tmp_path / "dens.txt"
    dens.write_text("0.0 0.5 0.5 1.0 0.2\n0.5 1.0 0.5 0.3 1.4\n")
    out = tmp_path / "hull.csv"
    assert run("lyapunov", "hull", dens, "--grid", 32, "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "b_1,b_2,support,vertex_1,vertex_2"
    assert len(lines) == 33


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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_validate_malformed_document_exits_2(tmp_path, capsys, case):
    mutate, path = MALFORMED[case]
    assert run("validate", write_doc(tmp_path, mutate)) == 2
    assert f"validation error: {path}: " in capsys.readouterr().err


def test_policy_file_rejects_non_finite_probability(onestep_model, tmp_path):
    from atomless_mdp.cli import load_policy_file
    from atomless_mdp.errors import ModelFormatError
    from atomless_mdp.model import load_model_file

    policy = write_policy(tmp_path, "pi.txt", [(0.0, 0.5, "0.5 0.5"), (0.5, 1.0, "nan 1.0")])
    with pytest.raises(ModelFormatError, match=r"pi.txt:2: non-finite entry"):
        load_policy_file(policy, load_model_file(onestep_model))
    assert run("evaluate", onestep_model, policy) == 2


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
    expected = performance(model, load_policy_file(policy_path, model))
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
    original = occ.occupancy
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name in ("atomless_mdp.occupancy", "atomless_mdp.cli", "atomless_mdp.derandomize"):
        monkeypatch.setattr(importlib.import_module(name), "occupancy", counting)
    assert run("path", model_path, phi0, phi1, "--grid", 5, "--out", tmp_path / "p.csv") == 0
    assert len(calls) == 5 + 1  # one per grid point, one for the path's context
