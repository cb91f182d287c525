import ast
import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausstent.cli import (
    EXIT_NUMERIC, EXIT_PARSE, EXIT_PRECONDITION, load_config, main,
)
from gausstent.grid import (
    GridFunction, HalfSpaceGrid, default_grid, write_grid_function,
)
from gausstent.atomic import import_decomposition, reconstruct
from gausstent.duality import DiscreteMeasure, write_measure_csv


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    g = default_grid()
    y, t = g.points[:, 0], g.t
    vals = np.exp(-((y[:, None] - 0.5) / 0.4) ** 2) \
        * np.exp(-np.log(t[None, :] / 0.1) ** 2)
    vals[np.abs(y - 0.5) > 1.0, :] = 0.0
    path = tmp / "f.gtnt"
    write_grid_function(GridFunction(g, vals), path)
    return path


@pytest.fixture(scope="module")
def measure_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mu")
    rng = np.random.default_rng(0)
    pts = tuple(((float(rng.uniform(-2, 2)),),
                 float(np.exp(rng.uniform(np.log(0.01), 0.0))),
                 float(rng.uniform(0.1, 1.0))) for _ in range(12))
    path = tmp / "mu.csv"
    write_measure_csv(DiscreteMeasure(pts), path)
    return path


def _load(out_dir, name):
    rep = json.loads((out_dir / name).read_text())
    rep.pop("timestamp")
    return rep


def test_config_defaults_and_delta_rule(tmp_path):
    cfg = load_config(None)
    assert cfg.delta == 2.0 * cfg.beta
    ini = tmp_path / "c.ini"
    ini.write_text("[params]\nbeta = 2.0\n")
    assert load_config(str(ini)).delta == 4.0
    ini.write_text("[params]\nbeta = 2.0\ndelta = 1.5\n")
    assert load_config(str(ini)).delta == 1.5


def test_config_rejects_unknown_key(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text("[params]\nbogus = 1\n")
    assert main(["--config", str(ini), "verify"]) == EXIT_PARSE
    ini.write_text("[mystery]\nx = 1\n")
    assert main(["--config", str(ini), "verify"]) == EXIT_PARSE


@pytest.mark.parametrize("section,key,raw", [
    ("grid", "nx", "inf"), ("grid", "nx", "abc"), ("params", "alpha", "x"),
])
def test_config_value_of_wrong_type_is_a_parse_error(tmp_path, capsys, section,
                                                     key, raw):
    ini = tmp_path / "c.ini"
    ini.write_text(f"[{section}]\n{key} = {raw}\n")
    rc = main(["--config", str(ini), "--out", str(tmp_path / "out"), "verify"])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"[{section}] {key}" in err and raw in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["stride", "levels"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_dictionary_sizes_below_one_are_a_parse_error(tmp_path, input_file, capsys,
                                                      key, value):
    # stride = 0 with p = inf divided by zero (exit 3) before it was checked
    ini = tmp_path / "c.ini"
    ini.write_text(f"[params]\np = inf\n[dictionary]\n{key} = {value}\n")
    rc = main(["--config", str(ini), "--out", str(tmp_path / "out"), "norm",
               "--input", str(input_file)])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"[dictionary] {key}" in err
    assert not (tmp_path / "out").exists()


def test_missing_input_is_parse_error(tmp_path):
    assert main(["--out", str(tmp_path), "norm",
                 "--input", str(tmp_path / "nope.gtnt")]) == EXIT_PARSE


def test_bad_grid_flag(tmp_path, input_file):
    assert main(["--grid", "abc", "--out", str(tmp_path), "norm",
                 "--input", str(input_file)]) == EXIT_PARSE


def test_precondition_exit(tmp_path, input_file):
    # q = inf without continuous intent is a precondition failure
    ini = tmp_path / "c.ini"
    ini.write_text("[params]\nq = inf\n")
    rc = main(["--config", str(ini), "--out", str(tmp_path), "norm",
               "--input", str(input_file)])
    assert rc == EXIT_PRECONDITION


def test_norm_command(tmp_path, input_file, capsys):
    rc = main(["--out", str(tmp_path), "norm", "--input", str(input_file)])
    assert rc == 0
    rep = _load(tmp_path, "norm.json")
    assert rep["norm"] > 0
    assert rep["p"] == 1.0 and rep["q"] == 2.0


def test_decompose_command(tmp_path, input_file):
    rc = main(["--out", str(tmp_path), "decompose", "--input", str(input_file)])
    assert rc == 0
    rep = _load(tmp_path, "decompose.json")
    assert rep["n_atoms"] > 0
    assert rep["residual_mass"] < 1e-10
    manifest = json.loads((tmp_path / "decomposition" / "decomposition.json").read_text())
    assert len(manifest["terms"]) == rep["n_atoms"]


@pytest.mark.parametrize("sup", [[], ["--sup"]])
def test_decompose_of_an_input_that_never_vanishes(tmp_path, capsys, sup):
    # the constant 1 has S f > 0 at every node, so the lowest level set is
    # the whole box: one line naming the area function, before any cover
    g = HalfSpaceGrid(((-8.0, 8.0),), (64,), 1e-3, 8.0, 16)
    path = tmp_path / "one.gtnt"
    write_grid_function(GridFunction(g, np.ones((64, 16))), path)
    rc = main(["--out", str(tmp_path / "out"), "--grid", "64,16", "decompose", *sup,
               "--input", str(path)])
    assert rc == EXIT_PRECONDITION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "positive at every grid node" in err and "S f = 0 somewhere" in err


def test_decompose_whose_inflated_level_set_covers_the_box(tmp_path, capsys):
    # f vanishes only near the origin: S f = 0 on two nodes, too few to hold
    # density points, so the inflated lowest level set is the whole box and
    # has no complement.  One line, before any cover
    g = HalfSpaceGrid(((-8.0, 8.0),), (64,), 1e-3, 8.0, 16)
    vals = np.ones((64, 16))
    vals[np.abs(g.points[:, 0]) < 1.0] = 0.0
    path = tmp_path / "sparse_zeros.gtnt"
    write_grid_function(GridFunction(g, vals), path)
    rc = main(["--out", str(tmp_path / "out"), "--grid", "64,16", "decompose",
               "--input", str(path)])
    assert rc == EXIT_PRECONDITION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "inflated level set" in err and "covers the whole box" in err


@pytest.mark.parametrize("sup", [[], ["--sup"]])
def test_decompose_of_a_bump_on_the_box_edge_leaves_no_cell_out(tmp_path, capsys, sup):
    # a bump on the box edge y = 8 at 300x16: the box exterior is not part of
    # any level set's complement, so the cells of the edge node lie in the
    # bands like any other and the atoms rebuild f with zero residual
    g = HalfSpaceGrid(((-8.0, 8.0),), (300,), 1e-3, 8.0, 16)
    y, t = g.points[:, 0], g.t
    vals = np.exp(-((y[:, None] - 8.0) / 0.3) ** 2) \
        * np.exp(-np.log(t[None, :] / 0.1) ** 2)
    vals[np.abs(y - 8.0) > 0.6, :] = 0.0
    path = tmp_path / "edge.gtnt"
    write_grid_function(GridFunction(g, vals), path)
    out = tmp_path / "out"
    rc = main(["--out", str(out), "--grid", "300,16", "decompose", *sup,
               "--input", str(path)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert _load(out, "decompose.json")["residual_mass"] == 0.0
    d = import_decomposition(out / "decomposition" / "decomposition.json")
    back = reconstruct(d).values
    assert not np.any((vals != 0) & (back == 0))
    assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(vals)


def test_verify_all_pass_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out1), "verify"]) == 0
    assert main(["--out", str(out2), "verify"]) == 0
    assert _load(out1, "verify.json") == _load(out2, "verify.json")


def test_verify_suite_selection(tmp_path):
    rc = main(["--out", str(tmp_path), "verify", "--suite", "tpp_identity"])
    assert rc == 0
    rep = _load(tmp_path, "verify.json")
    assert list(rep["suites"].keys()) == ["tpp_identity"]
    assert main(["--out", str(tmp_path), "verify",
                 "--suite", "no_such_suite"]) == EXIT_PARSE


def test_verify_seed_changes_report(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out1), "--seed", "1", "verify",
                 "--suite", "tpp_identity"]) == 0
    assert main(["--out", str(out2), "--seed", "2", "verify",
                 "--suite", "tpp_identity"]) == 0
    r1, r2 = _load(out1, "verify.json"), _load(out2, "verify.json")
    assert r1["suites"]["tpp_identity"]["max_rel_err"] \
        != r2["suites"]["tpp_identity"]["max_rel_err"]


def test_independence_command(tmp_path):
    rc = main(["--out", str(tmp_path), "independence"])
    assert rc == 0
    rep = _load(tmp_path, "independence.json")
    assert np.isfinite(rep["overall_max_ratio"])
    # diagonal of the ratio matrix is exactly 1
    rows = (tmp_path / "independence_f0.csv").read_text().splitlines()
    header = rows[0].split(",")[1:]
    for k, line in enumerate(rows[1:]):
        cells = line.split(",")
        assert cells[0] == header[k]
        assert float(cells[1 + k]) == 1.0


def test_independence_threads_match(tmp_path, input_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out1), "--threads", "1", "independence",
                 "--input", str(input_file)]) == 0
    assert main(["--out", str(out2), "--threads", "4", "independence",
                 "--input", str(input_file)]) == 0
    assert _load(out1, "independence.json") == _load(out2, "independence.json")
    assert (out1 / "independence_f0.csv").read_text() \
        == (out2 / "independence_f0.csv").read_text()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_parse_error(tmp_path, input_file, capsys, threads):
    rc = main(["--threads", threads, "--out", str(tmp_path), "independence",
               "--input", str(input_file)])
    assert rc == EXIT_PARSE
    assert _one_line_error(capsys)
    assert not list(tmp_path.iterdir())


def test_carleson_command(tmp_path, measure_file, input_file):
    rc = main(["--out", str(tmp_path), "carleson",
               "--measure", str(measure_file), "--function", str(input_file)])
    assert rc == 0
    rep = _load(tmp_path, "carleson.json")
    assert rep["norm"] > 0
    assert np.isfinite(rep["pairing"]["C_emp"])


def _pinned_inputs(tmp):
    """A bump on the 128x32 grid and a 12-point measure, fixed for good."""
    g = HalfSpaceGrid(((-8.0, 8.0),), (128,), 1e-3, 8.0, 32)
    y, t = g.points[:, 0], g.t
    vals = np.exp(-((y[:, None] - 0.5) / 0.4) ** 2) \
        * np.exp(-np.log(t[None, :] / 0.1) ** 2)
    vals[np.abs(y - 0.5) > 1.0, :] = 0.0
    write_grid_function(GridFunction(g, vals), tmp / "f.gtnt")
    rng = np.random.default_rng(0)
    pts = tuple(((float(rng.uniform(-2, 2)),),
                 float(np.exp(rng.uniform(np.log(0.01), 0.0))),
                 float(rng.uniform(0.1, 1.0))) for _ in range(12))
    write_measure_csv(DiscreteMeasure(pts), tmp / "mu.csv")
    (tmp / "c.ini").write_text("[params]\np = inf\n")


def test_dictionary_reports_are_pinned(tmp_path):
    # C_q at p = inf and the Carleson-measure norm over the default
    # dictionary, to the last bit
    _pinned_inputs(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(tmp_path / "c.ini"), "--grid", "128,32",
                 "--out", str(out), "norm", "--input", str(tmp_path / "f.gtnt")]) == 0
    assert main(["--grid", "128,32", "--out", str(out), "carleson",
                 "--measure", str(tmp_path / "mu.csv")]) == 0
    assert _load(out, "norm.json")["norm"] == 0.7917852595280547
    rep = _load(out, "carleson.json")
    assert rep["norm"] == 32.82667255190501
    assert rep["witness_ball"] == {"center": [2.078740157480315],
                                   "radius": 0.4810606060606061}
    assert rep["n_balls"] == 224


def _report_sha256(out_dir, name):
    """sha256 of a report file with its timestamp line cut out."""
    text = re.sub(r',\n  "timestamp": "[^"]*"', "", (out_dir / name).read_text())
    return hashlib.sha256(text.encode()).hexdigest()


def test_embed_and_verify_reports_are_pinned(tmp_path):
    # every byte of both reports but the timestamp: the H^1 constants move
    # with the mother function's peak and gamma(B), the suites with the
    # random draws of verify
    assert main(["--out", str(tmp_path), "--grid", "128,32", "--seed", "7", "embed"]) == 0
    assert main(["--out", str(tmp_path), "--grid", "128,32", "--seed", "7", "verify"]) == 0
    assert _report_sha256(tmp_path, "embed.json") \
        == "81290ebc88af95b35e78479b7bc10e4b96b02e82d0c8286c479d4b7573dfd1c1"
    assert _report_sha256(tmp_path, "verify.json") \
        == "0bacb9566a4171ce07f9913b3d2beaefa7cbccc346cef8ef978ecce2699696d6"


def test_embed_command(tmp_path):
    rc = main(["--out", str(tmp_path), "embed"])
    assert rc == 0
    rep = _load(tmp_path, "embed.json")
    assert rep["all_ok"]
    assert rep["mutation_sentinel_failed_support"]


# -- malformed inputs end in one line and exit 2 ---------------------------


def _one_line_error(capsys):
    return len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("defect", ["coarser_grid", "missing_row",
                                    "duplicate_row", "off_node_row"])
def test_csv_input_must_match_the_grid(tmp_path, capsys, defect):
    # a 64-node file on the 128-node grid, or one row missing, repeated or
    # half a cell off its node: no row may snap or zero-fill
    nx = 64 if defect == "coarser_grid" else 128
    g = HalfSpaceGrid(((-8.0, 8.0),), (nx,), 1e-3, 8.0, 8)
    path = tmp_path / "f.csv"
    write_grid_function(GridFunction(g, np.ones((nx, 8))), path)
    lines = path.read_text().splitlines()
    if defect == "missing_row":
        del lines[5]
    elif defect == "duplicate_row":
        lines[5] = lines[6]
    elif defect == "off_node_row":
        y, rest = lines[5].split(",", 1)
        lines[5] = f"{float(y) + 0.5 * g.cell!r},{rest}"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["--grid", "128,8", "--out", str(tmp_path), "norm",
               "--input", str(path)])
    assert rc == EXIT_PRECONDITION
    assert _one_line_error(capsys)


@pytest.mark.parametrize("row", ["99.0,0.1,1.0", "0.5,20.0,1.0", "0.5,0.3,0.1,1.0",
                                 "0.5,0.1,nan", ""])
def test_carleson_rejects_measure_points_off_the_grid(tmp_path, input_file,
                                                      capsys, row):
    # outside the box or the t-range, of the wrong dimension, not finite, or
    # no row at all: no point may snap onto the nearest node or drop out of
    # the norm, and an empty file is not the zero measure
    mu = tmp_path / "mu.csv"
    mu.write_text(row + "\n")
    rc = main(["--out", str(tmp_path), "carleson", "--measure", str(mu),
               "--function", str(input_file)])
    assert rc == EXIT_PRECONDITION
    assert _one_line_error(capsys)


@pytest.mark.parametrize("manifest, named", [
    ("{}", "'alpha'"),
    ("[]", "not a decomposition manifest"),
    ("not json", "is not JSON"),
    ('{"alpha": 1.0, "beta": 1.0, "q": 2.0, "source_norm": 1.0,'
     ' "terms": [{"lambda": 1.0, "q": 2.0, "delta": 0.5,'
     ' "ball": {"center": [0.0], "radius": 0.5}}]}', "'atom_file'"),
])
def test_embed_rejects_a_malformed_manifest(tmp_path, capsys, manifest, named):
    path = tmp_path / "m.json"
    path.write_text(manifest)
    rc = main(["--out", str(tmp_path), "embed", "--input", str(path)])
    assert rc == EXIT_PRECONDITION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(path) in err and named in err


def test_carleson_on_a_box_where_gamma_underflows_is_a_numeric_error(
        tmp_path, measure_file, capsys):
    # past |y| of about 27 some dictionary balls have gamma(B) = 0 in floats;
    # their ratio may not turn NaN and drop out of the norm
    ini = tmp_path / "c.ini"
    ini.write_text("[grid]\nbox_lo = -64\nbox_hi = 64\nnx = 256\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--config", str(ini), "--out", str(tmp_path), "carleson",
                   "--measure", str(measure_file)])
    assert not caught
    assert rc == EXIT_NUMERIC
    assert _one_line_error(capsys)


@pytest.mark.parametrize("defect", ["short_header", "cut_header", "short_payload",
                                    "bad_dimension"])
def test_malformed_gtnt_is_a_precondition_error(tmp_path, input_file, capsys,
                                                defect):
    # cut inside the header (6 and 20 bytes) or the payload (8 bytes short),
    # or a dimension field of 3
    raw = input_file.read_bytes()
    bad = tmp_path / "bad.gtnt"
    bad.write_bytes({"short_header": raw[:6], "cut_header": raw[:20],
                     "short_payload": raw[:-8],
                     "bad_dimension": raw[:8] + struct.pack("<I", 3) + raw[12:]}[defect])
    rc = main(["--out", str(tmp_path), "norm", "--infer-grid",
               "--input", str(bad)])
    assert rc == EXIT_PRECONDITION
    assert _one_line_error(capsys)


@pytest.mark.parametrize("command", [["--grid", "16,4", "verify", "--suite", "atom_bound"],
                                     ["--grid", "8,4", "embed"]])
def test_a_seeded_atom_whose_tent_holds_no_cell_is_a_precondition_error(
        tmp_path, capsys, command):
    # cells wider than the atom's ball: its tent is empty and the atom is 0/0
    assert main(["--out", str(tmp_path), *command]) == EXIT_PRECONDITION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "holds no grid cell" in err


def test_embed_of_a_manifest_with_no_q2_atom_is_a_precondition_error(
        tmp_path, capsys, input_file):
    # decompose --sup writes q = inf atoms only; checking none of them
    # would be a vacuous pass
    assert main(["--out", str(tmp_path), "decompose", "--sup",
                 "--input", str(input_file)]) == 0
    manifest = tmp_path / "decomposition" / "decomposition.json"
    capsys.readouterr()
    assert main(["--out", str(tmp_path), "embed", "--input", str(manifest)]) \
        == EXIT_PRECONDITION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(manifest) in err and "no q = 2 atom" in err
    assert not (tmp_path / "embed.json").exists()


def _gtnt_bytes(tmp, n):
    g = HalfSpaceGrid(((-8.0, 8.0),) * n, (8,) * n, 1e-3, 8.0, 4)
    path = tmp / f"valid{n}.gtnt"
    write_grid_function(GridFunction(g, np.ones((g.n_spatial, 4))), path)
    return path.read_bytes()


def _run_on_bytes(tmp, raw, command):
    """Exit code and stderr lines of `command --infer-grid` on a GTNT file;
    any warning fails the test, as does any exception out of main."""
    path = tmp / "cut.gtnt"
    path.write_bytes(raw)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(["--out", str(tmp / "out"), command, "--infer-grid", "--input", str(path)])
    assert not caught
    return rc, err.getvalue().strip().splitlines()


def test_gtnt_cut_at_every_length_is_a_precondition_error(tmp_path):
    raw = _gtnt_bytes(tmp_path, 1)
    for size in range(len(raw)):
        rc, err = _run_on_bytes(tmp_path, raw[:size], "norm")
        assert rc == EXIT_PRECONDITION and len(err) == 1, (size, err)


_NON_FINITE = st.sampled_from([np.inf, -np.inf, np.nan])


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2]), field=st.integers(0, 5), data=st.data(),
       command=st.sampled_from(["norm", "decompose"]))
def test_gtnt_bad_bounds_are_a_precondition_error(tmp_path_factory, n, field, data,
                                                  command):
    # fields 0 .. 2n-1 are the box ends, then t_min and t_max; box ends may
    # not be infinite or NaN, t ends also not zero or negative
    field %= 2 * n + 2
    if field < 2 * n:
        value = data.draw(_NON_FINITE)
    else:
        value = data.draw(st.one_of(_NON_FINITE, st.floats(max_value=0.0)))
    tmp = tmp_path_factory.mktemp("bounds")
    raw = bytearray(_gtnt_bytes(tmp, n))
    struct.pack_into("<d", raw, 16 + 4 * n + 8 * field, value)
    rc, err = _run_on_bytes(tmp, bytes(raw), command)
    assert rc == EXIT_PRECONDITION and len(err) == 1, err


# -- what each command imports ----------------------------------------------

_SRC = Path(__file__).resolve().parents[1] / "src"
_LIST_SCIPY = """
import sys
print(" ".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _scipy_modules_after(tmp_path, script):
    """Run `script` in a fresh interpreter; return the scipy modules it loaded."""
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script + _LIST_SCIPY],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_import_and_independence_load_no_scipy(tmp_path):
    loaded = _scipy_modules_after(tmp_path, """
from gausstent.cli import main
assert main(["--out", "out", "--grid", "64,16", "independence"]) == 0
""")
    assert loaded == set()


def test_dictionary_commands_load_no_scipy(tmp_path):
    _pinned_inputs(tmp_path)
    loaded = _scipy_modules_after(tmp_path, """
from gausstent.cli import main
assert main(["--config", "c.ini", "--grid", "128,32", "--out", "out", "norm",
             "--input", "f.gtnt"]) == 0
assert main(["--grid", "128,32", "--out", "out", "carleson", "--measure", "mu.csv"]) == 0
""")
    assert loaded == set()


def test_decompose_loads_no_scipy(tmp_path):
    # the distance transforms and the 1-D erfc are numpy and Python floats
    for sup in [], ["--sup"]:
        loaded = _scipy_modules_after(tmp_path, f"""
from gausstent.cli import main
from gausstent.families import tent_indicator
from gausstent.geometry import ConeSpec
from gausstent.grid import HalfSpaceGrid, write_grid_function
g = HalfSpaceGrid(((-8.0, 8.0),), (64,), 1e-3, 8.0, 16)
write_grid_function(tent_indicator(g, ConeSpec(1.0, 1.0), 0.5, 1.0), "f.gtnt")
assert main(["--out", "out", "--grid", "64,16", "decompose", *{sup}, "--input", "f.gtnt"]) == 0
""")
        assert loaded == set(), sup


def test_embed_and_verify_load_no_scipy(tmp_path):
    # the mother function's peak is a pinned float, not a minimize_scalar call
    loaded = _scipy_modules_after(tmp_path, """
from gausstent.cli import main
assert main(["--out", "out", "--grid", "128,32", "embed"]) == 0
assert main(["--out", "out", "--grid", "128,32", "verify"]) == 0
""")
    assert loaded == set()


def test_two_d_gamma_loads_integrate(tmp_path):
    loaded = _scipy_modules_after(tmp_path, """
from gausstent.geometry import Ball, gamma_ball
assert gamma_ball(Ball((0.5, -0.5), 0.3)) > 0
""")
    assert {"scipy.integrate", "scipy.special"} <= loaded


def test_decompose_sup_holds_one_atom_at_a_time(tmp_path):
    # a fresh interpreter's own peak RSS over decompose --sup of a 1024x256
    # bump (216 atoms, 2 MB each when dense); VmHWM, because ru_maxrss keeps
    # the spawning process's peak across exec
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", """
import numpy as np
from gausstent.cli import main
from gausstent.families import random_bump
from gausstent.grid import HalfSpaceGrid, write_grid_function
g = HalfSpaceGrid(((-8.0, 8.0),), (1024,), 1e-3, 8.0, 256)
write_grid_function(random_bump(g, np.random.default_rng(0)), "f.gtnt")
assert main(["--out", "out", "--grid", "1024,256", "decompose", "--sup",
             "--input", "f.gtnt"]) == 0
print(open("/proc/self/status").read().split("VmHWM:")[1].split()[0])
"""], cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert _load(tmp_path / "out", "decompose.json")["n_atoms"] == 216
    assert int(proc.stdout.splitlines()[-1]) < 150 * 1024


def test_cli_defines_no_seeded_family_and_imports_no_private_name():
    # the seeded families live in gausstent.families; the CLI uses only
    # public names of the library
    tree = ast.parse(Path(__file__).parents[1].joinpath(
        "src", "gausstent", "cli.py").read_text())
    imported = [a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported and not [n for n in imported if n.startswith("_")]
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"random_bump", "tent_indicator", "random_atom",
                          "boundary_atom"}
