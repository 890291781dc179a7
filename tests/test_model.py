"""Tests for the MDP data model, transforms, certificates and builtins."""

import contextlib
import gc
import importlib
import json
import struct
import weakref

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomless_mdp import cli, derandomize
from atomless_mdp.errors import ModelFormatError, NotCertifiedError, PartitionMismatchError
from atomless_mdp.measure import PieceMeasure, StatePartition
from atomless_mdp.model import (
    MAX_CORRIDOR_DEPTH,
    AtomlessMDP,
    DeterministicPolicy,
    StationaryPolicy,
    WeightConditionError,
    absorption_certificate,
    always_continue,
    builtin,
    cell_action_weights,
    discounted_to_absorbing,
    doubling_corridor,
    load_model,
    load_model_file,
    model_to_doc,
    random_deterministic_policy,
    random_model,
    random_stationary_policy,
    read_model_document,
    save_model_file,
    stop_policy,
    validate_policy,
    weighted_transform,
)


def one_cell_discounted(beta, reward=1.0, criteria=1):
    """Single cell that stays put until the discount transform absorbs it."""
    grid = StatePartition([0.0, 1.0])
    kernel = np.ones((1, 1, 1))
    rewards = np.full((1, 1, criteria), reward)
    return AtomlessMDP(
        grid, 1, [(0,)], kernel, np.zeros((1, 1)), rewards,
        PieceMeasure.uniform(), kind="discounted", beta=beta,
    )


def absorb_immediately(criteria=1):
    grid = StatePartition([0.0, 1.0])
    return AtomlessMDP(
        grid, 1, [(0,)], np.zeros((1, 1, 1)), np.ones((1, 1)),
        np.ones((1, 1, criteria)), PieceMeasure.uniform(),
    )


# ---------------------------------------------------------------------------
# document loading
# ---------------------------------------------------------------------------

def minimal_doc():
    return {
        "kind": "absorbing",
        "grid": [0.0, 1.0],
        "actions": 1,
        "available": [[0]],
        "kernel": [[{"to": [], "absorb": 1.0}]],
        "rewards": [[[2.0]]],
        "initial": [[0.0, 1.0, 1.0]],
    }


def test_load_degenerate_model():
    m = load_model(minimal_doc())
    assert m.absorb[0, 0] == 1.0
    assert m.cell_count == 1
    assert m.criteria == 1


def test_load_rejects_bad_row_sum():
    doc = minimal_doc()
    doc["kernel"][0][0]["absorb"] = 0.9
    with pytest.raises(ModelFormatError, match=r"kernel\[0\]\[0\]"):
        load_model(doc)


def test_load_rejects_negative_mass():
    doc = minimal_doc()
    doc["kernel"][0][0] = {"to": [[0.0, 1.0, -0.5]], "absorb": 1.5}
    with pytest.raises(ModelFormatError, match="negative"):
        load_model(doc)


def test_load_rejects_empty_available():
    doc = minimal_doc()
    doc["available"] = [[]]
    with pytest.raises(ModelFormatError, match=r"available\[0\]"):
        load_model(doc)


def test_load_rejects_nan_grid_breakpoint():
    # it once loaded as a different model, its rewards and kernel moved
    doc = model_to_doc(random_model(3, 2, 1, seed=1))
    doc["grid"][1] = float("nan")
    with pytest.raises(ModelFormatError, match="^grid: ") as exc:
        load_model(doc)
    assert exc.value.field == "grid"


def test_load_refines_grid_to_kernel_endpoints():
    doc = minimal_doc()
    doc["kernel"][0][0] = {"to": [[0.0, 0.25, 0.5]], "absorb": 0.5}
    m = load_model(doc)
    assert m.grid.points.tolist() == [0.0, 0.25, 1.0]
    assert m.kernel[0, 0].tolist() == [0.5, 0.0]


def test_builtin_roundtrip_unchanged():
    doc = model_to_doc(builtin("lyapunov-onestep"))
    again = model_to_doc(load_model(doc))
    assert doc == again


def test_roundtrip_random_model():
    m = random_model(5, 3, 2, seed=11)
    doc = model_to_doc(m)
    again = model_to_doc(load_model(doc))
    assert doc == again


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_load_reproduces_random_model_bitwise(seed, cells, actions, criteria):
    m = random_model(cells, actions, criteria, seed=seed)
    again = load_model(model_to_doc(m))
    assert again.grid.points.tobytes() == m.grid.points.tobytes()
    for name in ("kernel", "absorb", "rewards"):
        assert getattr(again, name).tobytes() == getattr(m, name).tobytes(), name
    assert again.initial.masses.tobytes() == m.initial.masses.tobytes()
    assert again.available == m.available


def test_load_multicell_rows_on_refined_grid():
    # rows spanning several cells and ending inside cells refine the grid to
    # quarters; every mass below is exact in binary
    doc = {
        "kind": "absorbing",
        "grid": [0.0, 0.5, 1.0],
        "actions": 2,
        "available": [[0, 1], [1]],
        "kernel": [
            [{"to": [[0.0, 1.0, 0.5], [0.25, 0.5, 0.25]], "absorb": 0.25},
             {"to": [], "absorb": 1.0}],
            [{"to": [[0.5, 0.75, 0.5]], "absorb": 0.5}],
        ],
        "rewards": [[[1.0], [2.0]], [[3.0]]],
        "initial": [[0.0, 0.25, 0.5], [0.25, 0.75, 0.5]],
    }
    m = load_model(doc)
    assert m.grid.points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert m.available == ((0, 1), (0, 1), (1,), (1,))
    row_a0 = [0.125, 0.375, 0.125, 0.125]
    row_b1 = [0.0, 0.0, 0.5, 0.0]
    zero = [0.0] * 4
    assert m.kernel.tolist() == [[row_a0, zero], [row_a0, zero], [zero, row_b1], [zero, row_b1]]
    assert m.absorb.tolist() == [[0.25, 1.0], [0.25, 1.0], [1.0, 0.5], [1.0, 0.5]]
    assert m.rewards[:, :, 0].tolist() == [[1.0, 2.0], [1.0, 2.0], [0.0, 3.0], [0.0, 3.0]]
    assert m.initial.masses.tolist() == [0.5, 0.25, 0.25, 0.0]


def reference_row_masses(rows, points):
    """Row-by-row placement of (lo, hi, mass) rows on a grid with every endpoint."""
    masses = np.zeros(points.size - 1)
    for lo, hi, mass in rows:
        a, b = int(np.flatnonzero(points == lo)[0]), int(np.flatnonzero(points == hi)[0])
        if b == a + 1:
            masses[a] += mass
        else:
            widths = np.diff(points)[a:b]
            masses[a:b] += mass * widths / widths.sum()
    return masses


def test_load_matches_row_by_row_placement():
    rng = np.random.default_rng(31)
    for _ in range(20):
        cells, actions = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        grid = np.unique(np.concatenate(([0.0, 1.0], rng.uniform(0.05, 0.95, cells - 1))))
        cuts = np.unique(np.concatenate((grid, rng.uniform(0.0, 1.0, 3))))

        def rows(total):
            out = []
            for _ in range(int(rng.integers(0, 6))):
                lo, hi = np.sort(rng.choice(cuts, 2, replace=False)).tolist()
                out.append([lo, hi, float(rng.uniform(0.0, total / 6))])
            return out

        available = [list(range(actions))] * (grid.size - 1)
        kernel = []
        for _ in available:
            cell = []
            for _ in range(actions):
                to = rows(0.9)
                cell.append({"to": to, "absorb": 1.0 - sum(r[2] for r in to)})
            kernel.append(cell)
        initial = rows(1.0)
        initial.append([0.0, 1.0, 1.0 - sum(r[2] for r in initial)])
        doc = {"kind": "absorbing", "grid": grid.tolist(), "actions": actions,
               "available": available, "kernel": kernel,
               "rewards": [[[1.0]] * actions] * len(available), "initial": initial}
        m = load_model(doc)
        owner = m.grid.index_map_from(StatePartition(grid))
        for i, base_cell in enumerate(owner):
            for a in range(actions):
                expected = reference_row_masses(kernel[base_cell][a]["to"], m.grid.points)
                assert m.kernel[i, a].tobytes() == expected.tobytes()
        expected = reference_row_masses(initial, m.grid.points)
        assert m.initial.masses.tobytes() == expected.tobytes()


def test_model_rejects_non_finite_masses():
    base = absorb_immediately()
    for kernel, absorb in ((np.full((1, 1, 1), np.nan), np.zeros((1, 1))),
                           (np.zeros((1, 1, 1)), np.full((1, 1), np.nan))):
        with pytest.raises(ModelFormatError, match=r"kernel\[0\]\[0\].*finite"):
            AtomlessMDP(base.grid, 1, [(0,)], kernel, absorb, base.rewards, base.initial)


def test_load_rejects_boolean_action_count():
    # True is an int to Python; it once reached np.zeros and raised TypeError
    doc = minimal_doc()
    doc["actions"] = True
    with pytest.raises(ModelFormatError, match="^actions: expected a positive integer"):
        load_model(doc)


@pytest.mark.parametrize("index", [1.7, 0.9, "1", True], ids=repr)
def test_load_rejects_non_integral_action_index(index):
    # each of these once loaded as action int(index)
    doc = minimal_doc()
    doc["actions"] = 2
    doc["available"] = [[index]]
    with pytest.raises(ModelFormatError,
                       match=r"^available\[0\]: expected a list of action indices$"):
        load_model(doc)


@pytest.mark.parametrize("index", [1, 1.0])
def test_load_accepts_integral_action_index(index):
    doc = minimal_doc()
    doc["actions"] = 2
    doc["available"] = [[index]]
    assert load_model(doc).available == ((1,),)


# (field, value, error): a boolean or a string where a document needs a
# number; each once loaded through float()
NOT_NUMBERS = [
    ("beta", False, "beta: discounted model needs beta in [0,1)"),
    ("beta", "0.5", "beta: discounted model needs beta in [0,1)"),
    ("grid", ["0", "1"], "grid: expected a list of breakpoints"),
    ("grid", [False, True], "grid: expected a list of breakpoints"),
    ("absorb", "1.0", "kernel[0][0].absorb: expected a number"),
    ("absorb", True, "kernel[0][0].absorb: expected a number"),
    ("rewards", ["2"], "rewards[0][0]: expected a list of numbers"),
    ("rewards", [True], "rewards[0][0]: expected a list of numbers"),
    ("rewards", "2", "rewards[0][0]: expected a list of numbers"),
]


def with_field(doc, field, value):
    if field == "beta":
        doc.update(kind="discounted", beta=value)
    elif field == "grid":
        doc["grid"] = value
    elif field == "absorb":
        doc["kernel"][0][0]["absorb"] = value
    else:
        doc["rewards"][0][0] = value
    return doc


@pytest.mark.parametrize("field, value, error", NOT_NUMBERS,
                         ids=[f"{f}={v!r}" for f, v, _ in NOT_NUMBERS])
def test_load_rejects_what_is_not_a_number(field, value, error):
    with pytest.raises(ModelFormatError) as exc:
        load_model(with_field(minimal_doc(), field, value))
    assert str(exc.value) == error


@pytest.mark.parametrize("field, value", [("beta", 0), ("grid", [0, 1]), ("absorb", 1),
                                          ("rewards", [2])])
def test_load_accepts_integers_as_numbers(field, value):
    m = load_model(with_field(minimal_doc(), field, value))
    assert m.grid.points.tolist() == [0.0, 1.0] and m.rewards.dtype == float


# (faulty `to`, the entry's absorb, error path suffix, message): each fault
# of a destination-row list and the error it gives
ROW_FAULTS = {
    "to not a list": (0.5, None, ".to", "expected [lo, hi, mass] rows"),
    "row of 2": ([[0.0, 1.0]], None, ".to", "expected [lo, hi, mass] rows"),
    "row of 4": ([[0.0, 0.5, 1.0, 0.25]], None, ".to", "expected [lo, hi, mass] rows"),
    "row not a list": ([0.5], None, ".to", "expected [lo, hi, mass] rows"),
    "non-numeric entry": ([[0.0, 1.0, "heavy"]], None, ".to",
                          "expected [lo, hi, mass] rows: could not convert string to float: 'heavy'"),
    "nan mass": ([[0.0, 1.0, float("nan")]], None, "", "masses must be finite"),
    "negative mass": ([[0.0, 1.0, -0.5]], 1.5, "", "negative mass"),
}
PARSE_FAULTS = [name for name, (*_, suffix, _msg) in ROW_FAULTS.items() if suffix]


def with_row_fault(doc, i, k, fault):
    to, absorb, suffix, message = ROW_FAULTS[fault]
    doc["kernel"][i][k]["to"] = to
    if absorb is not None:
        doc["kernel"][i][k]["absorb"] = absorb
    return f"kernel[{i}][{k}]{suffix}: {message}"


@pytest.mark.parametrize("fault", list(ROW_FAULTS))
def test_load_names_a_malformed_row_list(fault):
    doc = model_to_doc(random_model(4, 2, 2, seed=5))
    expected = with_row_fault(doc, 1, 0, fault)
    with pytest.raises(ModelFormatError) as exc:
        load_model(doc)
    assert str(exc.value) == expected


@pytest.mark.parametrize("fault", PARSE_FAULTS)
def test_load_names_a_malformed_initial_row_list(fault):
    doc = model_to_doc(random_model(4, 2, 2, seed=5))
    doc["initial"] = ROW_FAULTS[fault][0]
    with pytest.raises(ModelFormatError) as exc:
        load_model(doc)
    assert str(exc.value) == f"initial: {ROW_FAULTS[fault][3]}"


@pytest.mark.parametrize("first", list(ROW_FAULTS))
def test_load_reports_the_first_malformed_entry(first):
    # a later entry is malformed too, and where a fault is found while the
    # rows are read, so are a later absorb mass and the initial rows: such
    # faults come before every mass check, whose first failing entry wins
    for later in ROW_FAULTS:
        doc = model_to_doc(random_model(4, 2, 2, seed=5))
        expected = with_row_fault(doc, 1, 0, first)
        later_error = with_row_fault(doc, 2, 0, later)
        if first in PARSE_FAULTS or later in PARSE_FAULTS:
            doc["kernel"][3][0]["absorb"] = [0.5]
            doc["initial"] = [[0.0, 1.0]]
        if first not in PARSE_FAULTS and later in PARSE_FAULTS:
            expected = later_error
        with pytest.raises(ModelFormatError) as exc:
            load_model(doc)
        assert str(exc.value) == expected, (first, later)


# ways for the kernel or rewards list of a cell to hold the wrong number of
# action entries
COUNT_FAULTS = {
    "one entry too many": lambda cell: cell + cell,
    "no entries": lambda cell: [],
    "not a list": lambda cell: {"entries": cell},
}


@pytest.mark.parametrize("other", [None, (1, "non-numeric entry"), (3, "non-numeric entry"),
                                   (1, "negative mass")],
                         ids=["alone", "earlier malformed", "later malformed", "earlier bad mass"])
@pytest.mark.parametrize("fault", list(COUNT_FAULTS))
@pytest.mark.parametrize("wrong", ["kernel", "rewards", "kernel and rewards"])
def test_load_names_a_wrong_action_entry_count(wrong, fault, other):
    # the count fault of cell 2 is found where that cell is read: after a
    # malformed entry of cell 1, before any fault of cell 3 and before
    # every mass check
    doc = model_to_doc(random_model(4, 2, 2, seed=5))
    for field in wrong.split(" and "):
        doc[field][2] = COUNT_FAULTS[fault](doc[field][2])
    expected = f"{wrong.split()[0]}[2]: expected 1 action entries"
    if other is not None:
        cell, row_fault = other
        error = with_row_fault(doc, cell, 0, row_fault)
        if cell < 2 and row_fault in PARSE_FAULTS:
            expected = error
    with pytest.raises(ModelFormatError) as exc:
        load_model(doc)
    assert str(exc.value) == expected


def test_certificate_is_built_for_the_tol_asked():
    # the first certificate was once returned whatever tol a later call asked
    m = random_model(6, 2, 2, seed=1)
    m.certificate(1e-12)
    cert = m.certificate(1e-3)
    assert cert.tol == 1e-3
    assert cert.survival.tobytes() == absorption_certificate(m, 1e-3).survival.tobytes()
    assert m.certificate(1e-3) is cert


def per_entry_reference(doc):
    """(grid points, kernel, absorb, rewards, initial masses) of a document
    whose endpoints are all exact breakpoints of one grid, read one entry at
    a time: np.array on each entry's rows, float on each number, and rows
    placed one by one (``reference_row_masses``)."""
    base = [float(t) for t in doc["grid"]]
    entries = [(i, a, entry, reward)
               for i, acts in enumerate(doc["available"])
               for a, entry, reward in zip(acts, doc["kernel"][i], doc["rewards"][i])]
    tables = [np.array(e["to"], dtype=float).reshape(-1, 3) for _, _, e, _ in entries]
    initial = np.array(doc["initial"], dtype=float).reshape(-1, 3)
    points = np.unique(np.concatenate([base, *(t[:, :2].ravel() for t in tables),
                                       initial[:, :2].ravel()]))
    owner = np.searchsorted(base, points[:-1], side="right") - 1
    cells, actions = len(base) - 1, doc["actions"]
    kernel = np.zeros((cells, actions, points.size - 1))
    absorb = np.ones((cells, actions))
    rewards = np.zeros((cells, actions, len(entries[0][3])))
    for (i, a, entry, reward), table in zip(entries, tables):
        kernel[i, a] = reference_row_masses(table.tolist(), points)
        absorb[i, a] = float(entry.get("absorb", 0.0))
        rewards[i, a] = [float(r) for r in reward]
    masses = reference_row_masses(initial.tolist(), points)
    return points, kernel[owner], absorb[owner], rewards[owner], masses


def seeded_documents():
    """Documents of several shapes: one the benchmark's (192 cells, 3
    actions, 2 criteria, each row one grid cell), a discounted one, and one
    whose rows span several cells and end inside cells."""
    docs = [model_to_doc(random_model(192, 3, 2, seed=7)),
            model_to_doc(random_model(24, 4, 3, seed=8)),
            model_to_doc(random_model(1, 1, 1, seed=9))]
    discounted = model_to_doc(random_model(12, 2, 2, seed=10))
    discounted.update(kind="discounted", beta=0.9)
    docs.append(discounted)
    rng = np.random.default_rng(11)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    cuts = np.linspace(0.0, 1.0, 17)
    kernel, rewards = [], []
    for _ in range(4):
        cell, cell_rewards = [], []
        for _ in range(2):
            to = []
            for _ in range(int(rng.integers(0, 5))):
                lo, hi = np.sort(rng.choice(cuts, 2, replace=False)).tolist()
                to.append([lo, hi, float(rng.uniform(0.0, 0.15))])
            cell.append({"to": to, "absorb": 1.0 - sum(r[2] for r in to)})
            cell_rewards.append(rng.uniform(-1.0, 1.0, 2).tolist())
        kernel.append(cell)
        rewards.append(cell_rewards)
    docs.append({"kind": "absorbing", "grid": grid, "actions": 2,
                 "available": [[0, 1]] * 4, "kernel": kernel, "rewards": rewards,
                 "initial": [[0.0, 0.5, 0.5], [0.25, 1.0, 0.5]]})
    return docs


def test_load_matches_per_entry_reference_bitwise():
    for doc in seeded_documents():
        m = load_model(json.loads(json.dumps(doc)))
        points, kernel, absorb, rewards, masses = per_entry_reference(doc)
        assert m.grid.points.tobytes() == points.tobytes()
        assert m.kernel.tobytes() == kernel.tobytes()
        assert m.absorb.tobytes() == absorb.tobytes()
        assert m.rewards.tobytes() == rewards.tobytes()
        assert m.initial.masses.tobytes() == masses.tobytes()


# ---------------------------------------------------------------------------
# reading document bytes
# ---------------------------------------------------------------------------

def float_bits(value):
    """The parsed document with every float replaced by its IEEE-754 bytes,
    so that == compares floats bitwise (-0.0 against 0.0, NaN against NaN)."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, list):
        return [float_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: float_bits(v) for k, v in value.items()}
    return (type(value).__name__, value)


def hard_float_texts():
    """Decimal texts at the edges of double rounding: subnormals, the
    smallest normal written with 17 digits, the largest finite double, a
    signed zero and 30-digit mantissas over the whole exponent range."""
    texts = ["5e-324", "4.9406564584124654e-324", "2.2250738585072011e-308",
             "2.2250738585072014e-308", "-0.0", "0.0", "1.7976931348623157e308",
             "-1.7976931348623157e308", "0.1", "9007199254740993.0", "1e-400"]
    rng = np.random.default_rng(22)
    for _ in range(2000):
        digits = "".join(map(str, rng.integers(0, 10, 30)))
        texts.append(f"{digits[0]}.{digits[1:]}e{int(rng.integers(-330, 308))}")
    for bits in rng.integers(0, 2**63 - 1, 2000, dtype=np.int64, endpoint=True):
        value = float(np.int64(bits).view(np.float64))
        if np.isfinite(value):
            texts.append(repr(value))
    return texts


@pytest.mark.parametrize("seed, cells, actions, criteria",
                         [(1, 3, 2, 1), (7, 12, 3, 3), (40, 24, 4, 2)])
def test_reader_matches_json_on_model_documents(seed, cells, actions, criteria):
    data = json.dumps(model_to_doc(random_model(cells, actions, criteria, seed=seed)),
                      indent=1).encode()
    orjson.loads(data)      # strict JSON: the reader's fast path, not its fallback
    assert float_bits(read_model_document(data, "m.json")) == float_bits(json.loads(data))


def test_reader_matches_json_on_hard_floats():
    data = ("[" + ",".join(hard_float_texts()) + "]").encode()
    orjson.loads(data)
    assert float_bits(read_model_document(data, "floats")) == float_bits(json.loads(data))


def test_reader_keeps_what_json_dump_writes():
    # non-finite tokens and overflowing literals go to the json fallback
    data = b'{"a": NaN, "b": Infinity, "c": -Infinity, "d": 1e400, "e": -1e400}'
    doc = read_model_document(data, "m.json")
    assert np.isnan(doc["a"])
    assert [doc[k] for k in "bcde"] == [np.inf, -np.inf, np.inf, -np.inf]


@pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le", "utf-32", "utf-8-sig"])
def test_reader_decodes_what_json_loads_decodes(tmp_path, encoding):
    m = random_model(4, 2, 2, seed=3)
    text = json.dumps(model_to_doc(m), indent=1)
    assert read_model_document(text.encode(encoding), "m.json") == json.loads(text)
    path = tmp_path / "m.json"
    path.write_bytes(text.encode(encoding))
    assert model_to_doc(load_model_file(path)) == model_to_doc(m)


@pytest.mark.parametrize("data", [b'{"kind": ', b"", b"[1,]", b"\xff\xfe\x00\xd8\x80"],
                         ids=["truncated", "empty", "trailing comma", "not text"])
def test_load_model_file_names_the_file_on_unreadable_bytes(tmp_path, data):
    # bytes that are not UTF-8 once escaped as UnicodeDecodeError
    path = tmp_path / "m.json"
    path.write_bytes(data)
    with pytest.raises(ModelFormatError, match="invalid JSON: ") as exc:
        load_model_file(path)
    assert exc.value.field == path


@contextlib.contextmanager
def collector_state(enabled):
    """Run the block with the cycle collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def cli_load(path):
    return cli._load_any_model(path, cli.RunReport(["validate", str(path)]))


@pytest.mark.parametrize("load", [load_model_file, cli_load], ids=["library", "cli"])
def test_loading_a_model_file_starts_no_collection(tmp_path, load):
    path = tmp_path / "m.json"
    save_model_file(random_model(160, 3, 2, seed=52), path)
    doc = json.loads(path.read_text())
    rows = sum(len(e["to"]) for cell in doc["kernel"] for e in cell) + len(doc["initial"])
    del doc
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    with collector_state(True):
        gc.collect()
        before = gc.get_count()[0]
        gc.callbacks.append(record)
        try:
            model = load(path)
        finally:
            gc.callbacks.remove(record)
        # the parsed document, thousands of row lists, was freed inside the pause
        grown = gc.get_count()[0] - before
    assert model.cell_count == 160 and rows > 10_000
    assert starts == []
    assert grown < rows / 20


def collector_case(tmp_path, case):
    """A model file for each way out of the loader."""
    doc = model_to_doc(random_model(4, 2, 2, seed=3))
    if case == "negative mass":
        doc["kernel"][0][0] = {"to": [[0.0, 1.0, -0.5]], "absorb": 1.5}
    text = json.dumps(doc, indent=1)
    data = {"truncated": b'{"kind": ', "utf-16": text.encode("utf-16"),
            "chain": b'{"kind": "discrete-chain", "depth": 3}'}.get(case, text.encode())
    path = tmp_path / "m.json"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("case", ["model", "truncated", "utf-16", "negative mass", "chain"])
def test_loading_keeps_the_callers_collector_state(tmp_path, case, enabled):
    path = collector_case(tmp_path, case)
    valid = case in ("model", "utf-16", "chain")
    with collector_state(enabled):
        if case in ("model", "utf-16"):
            load_model_file(path)
        else:       # load_model_file reads no discrete chain either
            with pytest.raises(ModelFormatError):
                load_model_file(path)
        assert gc.isenabled() is enabled
        assert cli.main(["validate", str(path)]) == (0 if valid else 2)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_loading_keeps_the_collector_state_on_an_internal_error(tmp_path, monkeypatch, enabled):
    def fail(doc):
        raise RuntimeError("internal")

    path = collector_case(tmp_path, "model")
    monkeypatch.setattr(importlib.import_module("atomless_mdp.model"), "load_model", fail)
    with collector_state(enabled):
        with pytest.raises(RuntimeError):
            load_model_file(path)
        assert gc.isenabled() is enabled


def test_model_loaded_from_a_file_is_freed_without_the_cycle_collector(tmp_path):
    path = tmp_path / "m.json"
    save_model_file(random_model(6, 3, 2, seed=49), path)
    with collector_state(False):
        for load in (load_model_file, cli_load):
            m = load(path)
            m.certificate().summary()
            m.long_kernel()
            ref = weakref.ref(m)
            del m
            assert ref() is None


# ---------------------------------------------------------------------------
# discounted -> absorbing
# ---------------------------------------------------------------------------

def test_beta_zero_absorbs_in_one_step():
    out = discounted_to_absorbing(one_cell_discounted(0.0))
    assert np.all(out.absorb == 1.0)
    assert out.kind == "absorbing"


def test_beta_half_expected_time_two():
    out = discounted_to_absorbing(one_cell_discounted(0.5))
    cert = out.certificate()
    assert cert.L == 2.0


def test_transform_rejects_absorbing_input():
    with pytest.raises(ModelFormatError):
        discounted_to_absorbing(absorb_immediately())


def discounted_performance_oracle(model, policy, cutoff=1e-12):
    """Direct discounted summation of expected rewards, geometric truncation."""
    from atomless_mdp.occupancy import marginal_step

    beta = model.beta
    w = cell_action_weights(model, policy)
    step_reward = np.einsum("ia,ian->in", w, model.rewards)
    q = model.initial
    total = np.zeros(model.criteria)
    factor = 1.0
    bound = np.abs(model.rewards).max()
    t = 0
    while factor * bound / (1.0 - beta) > cutoff and t < 10_000:
        total += factor * (q.coarsened_to(model.grid).masses @ step_reward)
        q = marginal_step(model, policy, q)
        factor *= beta
        t += 1
    return total


def test_discount_transform_matches_direct_summation():
    rng = np.random.default_rng(19)
    for seed, beta in ((0, 0.3), (1, 0.5), (2, 0.85)):
        base = random_model(5, 2, 2, seed=900 + seed)
        # same dynamics (including pre-absorption), discounted on top
        disc = AtomlessMDP(base.grid, base.action_count, base.available,
                           base.kernel, base.absorb, base.rewards, base.initial,
                           kind="discounted", beta=beta)
        phi = random_deterministic_policy(disc, rng)
        from atomless_mdp.occupancy import performance

        oracle = discounted_performance_oracle(disc, phi)
        direct = performance(discounted_to_absorbing(disc), phi, tol=1e-12)
        assert np.linalg.norm(oracle - direct) <= 1e-9


def test_certificate_exact_for_multicell_zero_preabsorption():
    # when no row pre-absorbs, the transformed model has survival beta
    # everywhere and the certificate reproduces 1/(1-beta) exactly
    rng = np.random.default_rng(7)
    grid = StatePartition([0.0, 0.3, 0.8, 1.0])
    kernel = np.zeros((3, 2, 3))
    for i in range(3):
        for a in range(2):
            row = rng.random(3)
            kernel[i, a] = row / row.sum()
    m = AtomlessMDP(grid, 2, [(0, 1)] * 3, kernel, np.zeros((3, 2)),
                    rng.normal(size=(3, 2, 1)), PieceMeasure(grid, grid.widths),
                    kind="discounted", beta=0.5)
    cert = discounted_to_absorbing(m).certificate()
    assert cert.L == 2.0


# ---------------------------------------------------------------------------
# absorption certificate
# ---------------------------------------------------------------------------

def test_certificate_exact_for_discount_transforms():
    for beta in (0.0, 0.5, 0.9):
        out = discounted_to_absorbing(one_cell_discounted(beta))
        cert = absorption_certificate(out)
        assert cert.L == pytest.approx(1.0 / (1.0 - beta), rel=1e-12)


def test_certificate_survival_geometric_for_beta_half():
    out = discounted_to_absorbing(one_cell_discounted(0.5))
    cert = out.certificate()
    for n in range(0, 10):
        assert cert.survival[n] == pytest.approx(0.5**n, abs=1e-15)


def test_certificate_absorb_immediately():
    cert = absorb_immediately().certificate()
    assert cert.L == 1.0
    assert cert.tail(1) == 0.0
    assert cert.tail(0) == 1.0


def test_certificate_tail_monotone():
    m = random_model(6, 3, 2, seed=3)
    cert = m.certificate()
    tails = [cert.tail(n) for n in range(0, 200, 5)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[-1] <= 1e-9


def eager_certificate(model, tol=1e-12, cap=200_000):
    """(L, survival, sigma, half_horizon) from one pass of the survival
    recursion to its stop, the reference for the certificate's lazy profile."""
    m = model.cell_count
    neg = np.where(model.available_mask(), 0.0, -np.inf)
    s_vec, partial, mu = np.ones(m), np.zeros(m), model.initial.masses
    survival, half_horizon, sigma, n = [1.0], None, None, 0
    while True:
        partial_next = partial + s_vec
        s_vec = np.max(np.einsum("iaj,j->ia", model.kernel, s_vec) + neg, axis=1)
        n += 1
        survival.append(float(min(survival[-1], mu @ s_vec)))
        worst = float(s_vec.max(initial=0.0))
        if half_horizon is None:
            partial = partial_next
            if worst <= 0.5:
                half_horizon, sigma = n, worst
        if half_horizon is not None and (survival[-1] <= tol * 1e-4 or worst == 0.0):
            break
        if n >= cap:
            break
    return float(partial.max() / (1.0 - sigma)), np.asarray(survival), sigma, half_horizon


def certificate_cases():
    """(model, cap) pairs: seeded absorbing models, discount transforms and caps."""
    cases = [(random_model(6, 3, 2, seed=s), 200_000) for s in range(40, 44)]
    cases += [(discounted_to_absorbing(one_cell_discounted(beta)), 200_000)
              for beta in (0.0, 0.5, 0.9)]
    for seed, beta in ((45, 0.9), (46, 0.99)):
        r = random_model(5, 3, 2, seed=seed)
        disc = AtomlessMDP(r.grid, r.action_count, r.available, r.kernel, r.absorb,
                           r.rewards, r.initial, kind="discounted", beta=beta)
        cases.append((discounted_to_absorbing(disc), 200_000))
    r = random_model(6, 3, 2, seed=47)
    half = eager_certificate(r)[3]
    cases += [(r, half), (r, half + 3)]
    return cases


def test_lazy_survival_profile_equals_eager_reference():
    for model, cap in certificate_cases():
        L, survival, sigma, half = eager_certificate(model, cap=cap)
        for read in ("survival", "tail", "summary"):
            cert = absorption_certificate(model, cap=cap)
            assert (cert.L, cert.sigma, cert.half_horizon) == (L, sigma, half)
            if read == "tail":
                tails = [cert.tail(n) for n in range(survival.size + 3)]
                ref_tails = [float(min(L, L * L / (n + 1), L * survival[min(n, survival.size - 1)]))
                             for n in range(survival.size + 3)]
                assert tails == ref_tails
            if read == "summary":
                assert repr(cert.summary()) == repr({
                    "L": L, "half_horizon": half, "sigma": sigma,
                    "survival_horizon": survival.size - 1,
                    "tail_at_horizon": float(min(L, L * L / survival.size, L * survival[-1])),
                })
            assert cert.survival.tobytes() == survival.tobytes()
        if cap == half:
            assert survival.size == half + 1
        elif cap < 200_000:
            assert survival.size == cap + 1


def test_survival_profile_is_the_same_in_any_read_order():
    rng = np.random.default_rng(49)
    for model, cap in certificate_cases():
        full = absorption_certificate(model, cap=cap)
        survival = full.survival
        steps = range(survival.size + 3)
        tails = np.array([full.tail(n) for n in steps])
        summary = repr(full.summary())
        for _ in range(6):
            cert = absorption_certificate(model, cap=cap)
            for n in rng.integers(0, survival.size + 3, 8):
                read = rng.integers(3)
                if read == 0:
                    assert np.float64(cert.tail(n)).tobytes() == tails[n].tobytes()
                elif read == 1:
                    assert np.asarray(cert.profile_through(n))[:n + 1].tobytes() == \
                        survival[:n + 1].tobytes()
                else:
                    assert cert.survival.tobytes() == survival.tobytes()
            assert np.array([cert.tail(n) for n in steps]).tobytes() == tails.tobytes()
            assert repr(cert.summary()) == summary
            assert cert.survival.tobytes() == survival.tobytes()


def test_derandomize_runs_survival_recursion_to_half_horizon(monkeypatch):
    module = importlib.import_module("atomless_mdp.model")
    original, steps = module._survival_step, [0]

    def counting(*args):
        steps[0] += 1
        return original(*args)

    monkeypatch.setattr(module, "_survival_step", counting)
    rng = np.random.default_rng(48)
    for seed in range(3):
        m = random_model(6, 3, 2, seed=480 + seed)
        pi = random_stationary_policy(m, rng)
        steps[0] = 0
        derandomize(m, pi, tol=1e-5)
        cert = m.certificate()
        assert steps[0] == cert.half_horizon
        full = cert.survival.size - 1
        assert full > cert.half_horizon and steps[0] == full


def test_model_with_certificate_is_freed_without_the_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        for read_survival in (False, True):
            m = random_model(6, 3, 2, seed=49)
            cert = m.certificate()
            if read_survival:
                cert.summary()
            ref = weakref.ref(m)
            del m
            assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_not_certified_for_unreachable_loop():
    # second cell loops forever; worst-case survival never decays
    grid = StatePartition([0.0, 0.5, 1.0])
    kernel = np.zeros((2, 1, 2))
    kernel[1, 0, 1] = 1.0
    absorb = np.array([[1.0], [0.0]])
    initial = PieceMeasure(grid, [1.0, 0.0])
    m = AtomlessMDP(grid, 1, [(0,), (0,)], kernel, absorb,
                    np.zeros((2, 1, 1)), initial)
    with pytest.raises(NotCertifiedError):
        absorption_certificate(m, cap=3000)


def test_certificate_requires_absorbing_kind():
    with pytest.raises(NotCertifiedError):
        absorption_certificate(one_cell_discounted(0.5))


# ---------------------------------------------------------------------------
# weighted transform
# ---------------------------------------------------------------------------

def test_weighted_transform_unit_weight_identity():
    m = random_model(4, 2, 2, seed=5)
    t = weighted_transform(m, np.ones(4))
    assert np.allclose(t.kernel, m.kernel)
    assert np.allclose(t.rewards, m.rewards)
    assert np.allclose(t.initial.masses, m.initial.masses)


def test_weighted_transform_constant_weight_cancels():
    m = absorb_immediately()
    m = AtomlessMDP(m.grid, 1, [(0,)], m.kernel, m.absorb,
                    np.full((1, 1, 1), 3.0), m.initial)
    t = weighted_transform(m, np.array([2.0]))
    assert t.rewards[0, 0, 0] == pytest.approx(3.0)
    assert t.initial.masses.tolist() == [1.0]


def test_weighted_transform_rejects_expanding_weight():
    # all mass moves to the heavier cell, so the weighted row expands
    grid = StatePartition([0.0, 0.5, 1.0])
    kernel = np.zeros((2, 1, 2))
    kernel[0, 0, 1] = 1.0
    absorb = np.array([[0.0], [1.0]])
    m = AtomlessMDP(grid, 1, [(0,), (0,)], kernel, absorb,
                    np.zeros((2, 1, 1)), PieceMeasure(grid, [0.5, 0.5]))
    with pytest.raises(WeightConditionError, match=r"kernel\[0\]\[0\]: weighted row expands by 2\.0 > 1"):
        weighted_transform(m, np.array([1.0, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weighted_transform_rejects_non_finite_weight(bad):
    m = random_model(3, 2, 1, seed=1)
    with pytest.raises(ModelFormatError, match="^weights: .*finite"):
        weighted_transform(m, [bad, 1.0, 1.0])


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

def test_policy_validation():
    m = random_model(4, 3, 1, seed=7)
    phi = random_deterministic_policy(m, np.random.default_rng(0))
    validate_policy(m, phi)
    bad = DeterministicPolicy(StatePartition([0.0, 1.0]), [0])
    if m.grid.cell_count > 1:
        with pytest.raises(Exception):
            validate_policy(m, bad)


def test_policy_validation_names_first_offending_interval():
    grid = StatePartition([0.0, 0.5, 1.0])
    m = AtomlessMDP(grid, 2, [(0,), (1,)], np.zeros((2, 2, 2)), np.ones((2, 2)),
                    np.zeros((2, 2, 1)), PieceMeasure(grid, [0.5, 0.5]))
    fine = StatePartition([0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ModelFormatError, match=r"policy\[1\]: unavailable action 1 in cell 0"):
        validate_policy(m, DeterministicPolicy(fine, [0, 1, 0, 0]))
    with pytest.raises(ModelFormatError, match=r"policy\[2\]: mass on an unavailable action"):
        validate_policy(m, StationaryPolicy(fine, [[1, 0], [1, 0], [0.5, 0.5], [0, 1]]))
    with pytest.raises(PartitionMismatchError, match="policy interval 0 straddles"):
        validate_policy(m, DeterministicPolicy(StatePartition([0.0, 1.0]), [1]))
    validate_policy(m, DeterministicPolicy(fine, [0, 0, 1, 1]))


def test_stationary_policy_rejects_non_finite_probabilities():
    with pytest.raises(ValueError, match="finite"):
        StationaryPolicy(StatePartition([0.0, 1.0]), [[np.nan, 1.0]])


def test_deterministic_policy_rejects_non_integral_actions():
    part = StatePartition([0.0, 1.0])
    for actions in ([1.7], [np.nan], [np.inf], [-np.inf]):
        with pytest.raises(ValueError, match="finite integers"):
            DeterministicPolicy(part, actions)
    for actions in ([1.0], [1], np.array([1], dtype=np.uint8)):
        phi = DeterministicPolicy(part, actions)
        assert phi.actions.tolist() == [1] and phi.actions.dtype == np.int_


def test_cell_action_weights_sub_cell_split():
    m = builtin("unit-interval-onestep")
    phi = DeterministicPolicy(StatePartition([0.0, 0.3, 1.0]), [1, 0])
    w = cell_action_weights(m, phi)
    assert w[0].tolist() == pytest.approx([0.7, 0.3])


def test_cell_action_weights_stationary():
    m = builtin("unit-interval-onestep")
    pi = StationaryPolicy(StatePartition([0.0, 1.0]), [[0.25, 0.75]])
    w = cell_action_weights(m, pi)
    assert w[0].tolist() == pytest.approx([0.25, 0.75])


def test_canonical_merges_equal_actions():
    phi = DeterministicPolicy(StatePartition([0.0, 0.3, 0.6, 1.0]), [1, 1, 0])
    c = phi.canonical()
    assert c.partition.points.tolist() == [0.0, 0.6, 1.0]
    assert c.actions.tolist() == [1, 0]


def test_deterministic_policy_equality_modulo_partition():
    a = DeterministicPolicy(StatePartition([0.0, 0.5, 1.0]), [1, 1])
    b = DeterministicPolicy(StatePartition([0.0, 1.0]), [1])
    assert a == b


# ---------------------------------------------------------------------------
# doubling corridor diagnostics chain
# ---------------------------------------------------------------------------

def test_corridor_always_continue_expected_time():
    chain = doubling_corridor(10)
    assert chain.expected_absorption_time(always_continue) == 2.0


def test_corridor_stop_policies_expected_time():
    chain = doubling_corridor(10)
    for n in range(0, 11):
        expected = 3.0 - 2.0 ** (-n + 1)
        assert chain.expected_absorption_time(stop_policy(n)) == expected


def test_corridor_non_uniform_tail_pattern():
    # the stop-at-n policy leaves exactly unit expected mass beyond time n
    chain = doubling_corridor(8)
    for n in range(1, 9):
        tail = chain.tail_mass(stop_policy(n), n, horizon=n + 2**n + 2)
        assert tail == pytest.approx(1.0, abs=1e-12)


def test_corridor_sup_expected_time_truncation():
    chain = doubling_corridor(6)
    # worst start is the head of the longest corridor: 2^6 steps to absorb
    assert chain.sup_expected_time() >= 2.0**6
    surv = chain.max_survival(8)
    assert surv[0] == 1.0
    assert all(a >= b for a, b in zip(surv, surv[1:]))


def test_corridor_depth_is_bounded():
    # about 2^(depth+1) states: depth 1000 never finished building
    with pytest.raises(ValueError, match=f"at most {MAX_CORRIDOR_DEPTH}"):
        doubling_corridor(MAX_CORRIDOR_DEPTH + 1)
    with pytest.raises(ModelFormatError, match="^builtin: corridor depth must be at most"):
        builtin("doubling-corridor:1000")


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def test_builtin_unit_interval():
    m = builtin("unit-interval-onestep")
    assert m.action_count == 2
    assert m.rewards[0, 1, 0] == 1.0
    assert m.certificate().L == 1.0


def test_builtin_unknown_name():
    with pytest.raises(ModelFormatError):
        builtin("nope")


def test_random_model_is_valid_and_certifiable():
    for seed in range(5):
        m = random_model(8, 3, 3, seed=seed)
        cert = m.certificate()
        assert np.isfinite(cert.L)
        assert cert.L >= 1.0
