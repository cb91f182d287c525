import ast
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _families import bump
from gausstent.cli import (
    EXIT_NUMERIC, EXIT_PARSE, EXIT_PRECONDITION, RunConfig, load_config, main,
)
from gausstent.functionals import default_dictionary
from gausstent.geometry import is_admissible
from gausstent.grid import GridFunction, HalfSpaceGrid, write_grid_function
from gausstent.atomic import import_decomposition, reconstruct
from gausstent.duality import DiscreteMeasure, write_measure_csv
from gausstent.families import random_bump


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    path = tmp / "f.gtnt"
    write_grid_function(bump(RunConfig().grid()), path)
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


@pytest.mark.parametrize("text", [
    b"[grid]\nnx = 64\n[grid]\nnt = 16\n",
    b"[grid]\nnx = 64\nnx = 32\n",
    b"nx = 64\n",
    b"[grid]\n\n  stray\n",
    b"[grid]\nnx = %(foo)s\n",
    b"[grid]\nnx = 64\n  stray\n",
    b"[grid]\nnx = \xff64\n",
], ids=["repeated-section", "repeated-option", "no-section-header",
        "stray-continuation", "interpolation", "continued-value", "not-utf8"])
def test_malformed_config_file_is_a_one_line_parse_error(tmp_path, capsys, text):
    ini = tmp_path / "c.ini"
    ini.write_bytes(text)
    rc = main(["--config", str(ini), "--out", str(tmp_path / "out"), "verify"])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(ini) in err or "[grid] nx" in err
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


@pytest.mark.parametrize("argv", [
    ["--seed", "abc", "verify"], ["bogus"], ["norm"],
    ["--config", "{missing}", "verify"],
], ids=["seed-not-an-int", "unknown-command", "norm-without-input", "missing-config"])
def test_a_malformed_flag_is_a_one_line_parse_error(tmp_path, capsys, argv):
    # argparse's usage block would come before its own error line
    argv = [a.format(missing=tmp_path / "nope.ini") for a in argv]
    assert main(["--out", str(tmp_path / "out"), *argv]) == EXIT_PARSE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["decompose", "--help"]) == 0
    assert "--sup" in capsys.readouterr().out


def test_a_dictionary_section_sizes_the_carleson_dictionary(tmp_path, measure_file):
    ini = tmp_path / "c.ini"
    ini.write_text("[dictionary]\nstride = 8\nlevels = 3\n")
    assert main(["--config", str(ini), "--grid", "128,32", "--out", str(tmp_path),
                 "carleson", "--measure", str(measure_file)]) == 0
    cfg = load_config(str(ini))
    grid = HalfSpaceGrid(((-8.0, 8.0),), (128,), 1e-3, 8.0, 32)
    d = default_dictionary(grid, cfg.beta, 8, 3)
    admissible = int(np.count_nonzero(is_admissible(d.centers, d.radii, cfg.delta)))
    assert _load(tmp_path, "carleson.json")["n_balls"] == admissible == 48


def test_missing_input_is_parse_error(tmp_path):
    assert main(["--out", str(tmp_path), "norm",
                 "--input", str(tmp_path / "nope.gtnt")]) == EXIT_PARSE


@pytest.mark.parametrize("command", [
    ["norm", "--input", "{dir}"], ["decompose", "--input", "{dir}"],
    ["carleson", "--measure", "{dir}"], ["embed", "--input", "{dir}"],
    ["--out", "{file}", "norm", "--input", "{input}"],
    ["--out", "{file}", "decompose", "--input", "{input}"],
], ids=["norm-dir", "decompose-dir", "carleson-dir", "embed-dir",
        "out-is-a-file-norm", "out-is-a-file-decompose"])
def test_io_errors_are_one_line_parse_errors(tmp_path, input_file, capsys, command):
    # a directory where a file is read, or a file where the output
    # directory goes: exit 1 with one line, no traceback
    (tmp_path / "file").write_text("")
    names = {"dir": str(tmp_path), "file": str(tmp_path / "file"),
             "input": str(input_file)}
    argv = [a.format(**names) for a in command]
    if argv[0] != "--out":
        argv = ["--out", str(tmp_path / "out"), *argv]
    assert main(argv) == EXIT_PARSE
    assert _one_line_error(capsys)


def test_measure_csv_with_a_header_row_names_the_file(tmp_path, capsys):
    mu = tmp_path / "mu.csv"
    mu.write_text("y0,t,weight\n0.5,0.1,1.0\n")
    assert main(["--out", str(tmp_path), "carleson", "--measure", str(mu)]) \
        == EXIT_PRECONDITION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(mu) in err[0]


def test_negative_seed_is_a_parse_error(tmp_path, capsys):
    assert main(["--seed", "-1", "--out", str(tmp_path), "verify",
                 "--suite", "tent_compare"]) == EXIT_PARSE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--seed" in err[0]
    assert not list(tmp_path.iterdir())


def test_grid_meta_is_the_grid_of_the_function_read(tmp_path, input_file):
    # independence --infer-grid on a 128x32 file reports that grid, not the
    # 512x128 of the config
    g = HalfSpaceGrid(((-8.0, 8.0),), (128,), 1e-3, 8.0, 32)
    path = tmp_path / "f128.gtnt"
    write_grid_function(random_bump(g, np.random.default_rng(0)), path)
    assert main(["--out", str(tmp_path), "independence", "--infer-grid",
                 "--input", str(path)]) == 0
    assert _load(tmp_path, "independence.json")["grid_meta"] == {
        "box": [-8.0, 8.0], "nx": 128, "t_min": 1e-3, "t_max": 8.0, "nt": 32}
    # the same file read on the config grid
    assert main(["--out", str(tmp_path), "independence",
                 "--input", str(input_file)]) == 0
    assert _load(tmp_path, "independence.json")["grid_meta"] == {
        "box": [-8.0, 8.0], "nx": 512, "t_min": 1e-3, "t_max": 8.0, "nt": 128}


def test_grid_meta_of_a_2d_file_lists_every_axis(tmp_path):
    g = HalfSpaceGrid(((-8.0, 8.0), (-4.0, 4.0)), (16, 8), 1e-3, 8.0, 8)
    path = tmp_path / "f2.gtnt"
    write_grid_function(GridFunction(g, np.ones((g.n_spatial, g.nt))), path)
    assert main(["--out", str(tmp_path), "norm", "--infer-grid",
                 "--input", str(path)]) == 0
    assert _load(tmp_path, "norm.json")["grid_meta"] == {
        "box": [[-8.0, 8.0], [-4.0, 4.0]], "nx": [16, 8], "t_min": 1e-3,
        "t_max": 8.0, "nt": 8}


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


def test_decompose_with_no_atoms_replaces_the_last_manifest(tmp_path, capsys):
    # the zero function after a bump, into one --out: the manifest must list
    # no atom, or embed --input would check the bump's atoms
    g = HalfSpaceGrid(((-8.0, 8.0),), (128,), 1e-3, 8.0, 32)
    manifest = tmp_path / "decomposition" / "decomposition.json"
    n_atoms = []
    for f in (random_bump(g, np.random.default_rng(0)), GridFunction.zero(g)):
        write_grid_function(f, tmp_path / "f.gtnt")
        assert main(["--out", str(tmp_path), "--grid", "128,32", "decompose",
                     "--input", str(tmp_path / "f.gtnt")]) == 0
        n_atoms.append(_load(tmp_path, "decompose.json")["n_atoms"])
        assert len(json.loads(manifest.read_text())["terms"]) == n_atoms[-1]
    assert n_atoms[0] > 0 and n_atoms[1] == 0
    capsys.readouterr()
    assert main(["--out", str(tmp_path), "embed", "--input", str(manifest)]) \
        == EXIT_PRECONDITION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "holds no q = 2 atom" in err


def test_decompose_removes_the_atom_files_its_manifest_does_not_list(tmp_path):
    # a bump, then the zero function, into one --out: the directory holds
    # the manifest and the atom files it lists, no earlier run's
    g = HalfSpaceGrid(((-8.0, 8.0),), (128,), 1e-3, 8.0, 32)
    out = tmp_path / "decomposition"
    for f in (random_bump(g, np.random.default_rng(0)), GridFunction.zero(g)):
        write_grid_function(f, tmp_path / "f.gtnt")
        assert main(["--out", str(tmp_path), "--grid", "128,32", "decompose",
                     "--input", str(tmp_path / "f.gtnt")]) == 0
        terms = json.loads((out / "decomposition.json").read_text())["terms"]
        assert sorted(p.name for p in out.iterdir()) \
            == sorted(["decomposition.json"] + [t["atom_file"] for t in terms])
    assert terms == []


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


@pytest.mark.parametrize("source", ["default_sweep", "input"])
def test_independence_output_does_not_depend_on_threads(tmp_path, input_file, source):
    # the five functions of the default sweep at 128x32, or the one of
    # --input, at --threads 1, 2 and 3: the reports and CSVs are the same bytes
    flags, command, n_funcs = {
        "default_sweep": (["--grid", "128,32"], ["independence"], 5),
        "input": ([], ["independence", "--input", str(input_file)], 1),
    }[source]
    outs = [tmp_path / str(k) for k in (1, 2, 3)]
    for out in outs:
        assert main(["--out", str(out), *flags, "--threads", out.name, *command]) == 0
    for out in outs[1:]:
        assert _load(out, "independence.json") == _load(outs[0], "independence.json")
        for fi in range(n_funcs):
            name = f"independence_f{fi}.csv"
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes()


def _fake_suite(cfg, grid, rng):
    return {"ok": True, "pid": os.getpid()}


def _underflowing_suite(cfg, grid, rng):
    raise FloatingPointError("gamma(B) underflows to 0")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_suites_run_in_worker_processes_only_on_a_pool(tmp_path, monkeypatch, threads):
    # verify's suites run in forked workers at two, in this process at one;
    # independence sweeps its five functions here at any count
    from gausstent import cli
    monkeypatch.setattr(cli, "_VERIFY_SUITES",
                        tuple((name, _fake_suite) for name in ("a", "b", "c")))
    assert main(["--out", str(tmp_path), "--threads", threads, "verify"]) == 0
    pids = [rep["pid"] for rep in _load(tmp_path, "verify.json")["suites"].values()]
    assert len(pids) == 3
    if threads == "1":
        assert pids == [os.getpid()] * 3
    else:
        assert os.getpid() not in pids
    ran_on = []

    def spy(*args):
        ran_on.append((os.getpid(), threading.current_thread() is threading.main_thread()))
        return cli_tent_norms(*args)

    cli_tent_norms = cli.tent_norms
    monkeypatch.setattr(cli, "tent_norms", spy)
    assert main(["--out", str(tmp_path), "--grid", "64,16", "--threads", threads,
                 "independence"]) == 0
    assert ran_on == [(os.getpid(), True)] * 5


def test_verify_is_the_same_on_one_two_and_three_workers(tmp_path, capsys):
    outs, stdouts = [tmp_path / str(k) for k in (1, 2, 3)], []
    for out in outs:
        assert main(["--out", str(out), "--grid", "128,32", "--threads", out.name,
                     "verify"]) == 0
        stdouts.append(capsys.readouterr().out)
        assert multiprocessing.active_children() == []
    assert stdouts[0].startswith("tent_compare: pass\ncomparison_lemma: pass\n")
    for out, stdout in zip(outs[1:], stdouts[1:]):
        assert stdout == stdouts[0]
        assert _report_sha256(out, "verify.json") == _report_sha256(outs[0], "verify.json")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_suite_error_in_a_worker_exits_as_in_process(tmp_path, capsys, monkeypatch, threads):
    from gausstent import cli
    monkeypatch.setattr(cli, "_VERIFY_SUITES",
                        (("fine", _fake_suite), ("underflow", _underflowing_suite)))
    assert main(["--out", str(tmp_path), "--threads", threads, "verify"]) == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert err == "numeric error: gamma(B) underflows to 0\n"
    assert out == ""
    assert not (tmp_path / "verify.json").exists()
    assert multiprocessing.active_children() == []


def test_threads_default_to_the_available_cpus():
    from gausstent.cli import build_parser
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert build_parser().parse_args(["verify"]).threads == cpus


_SLOW_VERIFY = """
import os, time
from gausstent import cli

def slow(cfg, grid, rng):
    open(f"worker_{os.getpid()}", "w").close()
    time.sleep(60)

cli._VERIFY_SUITES = (("a", slow), ("b", slow))
cli.main(["--out", "out", "--threads", "2", "verify"])
"""


def _running(pid):
    """Whether the process pid exists and is no zombie (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_workers_end_with_a_killed_command(tmp_path):
    # SIGKILL leaves the command no time to stop its workers: they end
    # themselves when its process is gone
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", _SLOW_VERIFY], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path})
    try:
        deadline = time.monotonic() + 60
        while len(list(tmp_path.glob("worker_*"))) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait(timeout=10)
    pids = [int(p.name.split("_")[1]) for p in tmp_path.glob("worker_*")]
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))


_KILLED_WORKER = """
import multiprocessing, os, signal, sys
from gausstent import cli

def fine(cfg, grid, rng):
    return {"ok": True}

def killed(cfg, grid, rng):
    os.kill(os.getpid(), signal.SIGKILL)

cli._VERIFY_SUITES = (("fine", fine), ("killed", killed))
rc = cli.main(["--out", "out", "--threads", "2", "verify"])
print(len(multiprocessing.active_children()))
sys.exit(rc)
"""


def test_a_killed_worker_ends_verify_in_one_line(tmp_path):
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _KILLED_WORKER], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_NUMERIC
    assert proc.stderr == "numeric error: a worker process ended without its result\n"
    assert proc.stdout == "0\n"
    assert not (tmp_path / "out" / "verify.json").exists()


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
    write_grid_function(bump(HalfSpaceGrid(((-8.0, 8.0),), (128,), 1e-3, 8.0, 32)),
                        tmp / "f.gtnt")
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


def test_carleson_pairing_report_is_pinned(tmp_path):
    # the pairing takes the norm the command already holds; every byte of
    # the report but the timestamp stays
    _pinned_inputs(tmp_path)
    out = tmp_path / "out"
    assert main(["--grid", "128,32", "--out", str(out), "carleson",
                 "--measure", str(tmp_path / "mu.csv"),
                 "--function", str(tmp_path / "f.gtnt")]) == 0
    assert _report_sha256(out, "carleson.json") \
        == "97b9dd7c528483f14b2e6574a83b7886226640223589a9170ac0ce7fa5df81af"


def test_independence_report_is_pinned(tmp_path):
    # the nine tent norms of the sweep, to the last bit, in the report and
    # in the ratio matrix
    _pinned_inputs(tmp_path)
    out = tmp_path / "out"
    assert main(["--grid", "128,32", "--out", str(out), "independence",
                 "--input", str(tmp_path / "f.gtnt")]) == 0
    assert _report_sha256(out, "independence.json") \
        == "238dd7aa53f3627f79e05099109514901643291aed84eb9fe2a8f0f82b0da686"
    assert hashlib.sha256((out / "independence_f0.csv").read_bytes()).hexdigest() \
        == "b20835b845f06d105951c2a9723cd2d6c64afcf8d74078c559605f0ab97b5c6a"


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


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
@pytest.mark.parametrize("command", ["carleson", "norm", "decompose"])
def test_a_malformed_aperture_is_a_precondition_error(tmp_path, input_file, measure_file,
                                                      capsys, command, value):
    # a cone aperture must be positive; none of these may reach a report
    ini = tmp_path / "c.ini"
    ini.write_text(f"[params]\nalpha = {value}\n")
    inputs = {"carleson": ["--measure", str(measure_file)],
              "norm": ["--input", str(input_file)],
              "decompose": ["--input", str(input_file)]}
    out = tmp_path / "out"
    rc = main(["--config", str(ini), "--out", str(out), command, *inputs[command]])
    assert rc == EXIT_PRECONDITION
    assert _one_line_error(capsys)
    assert not out.exists()


def test_decompose_with_eta_outside_the_unit_interval_is_a_precondition_error(
        tmp_path, input_file, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text("[params]\neta = 1.5\n")
    rc = main(["--config", str(ini), "--out", str(tmp_path / "out"), "decompose",
               "--input", str(input_file)])
    assert rc == EXIT_PRECONDITION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "eta must lie in (0, 1)" in err


def test_q_inf_in_the_config_needs_the_sup_flag(tmp_path, capsys):
    # decompose takes q = inf from --sup alone, and --sup reads no eta
    g = HalfSpaceGrid(((-8.0, 8.0),), (64,), 1e-3, 8.0, 16)
    path = tmp_path / "f.gtnt"
    write_grid_function(random_bump(g, np.random.default_rng(0)), path)
    ini = tmp_path / "c.ini"
    ini.write_text("[params]\nq = inf\neta = 1.5\n")
    argv = ["--config", str(ini), "--grid", "64,16", "--out", str(tmp_path / "out"),
            "decompose", "--input", str(path)]
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--sup" in err[0]
    assert not (tmp_path / "out").exists()
    assert main([*argv, "--sup"]) == 0
    assert _load(tmp_path / "out", "decompose.json")["n_atoms"] > 0


@pytest.mark.parametrize("case,command", [
    (case, command) for case in ("huge_values", "q = 1e308", "p = 1e308")
    for command in ("norm", "decompose", "independence")
    if (case, command) != ("p = 1e308", "decompose")       # decompose reads no p
])
def test_an_overflow_is_a_one_line_numeric_error(tmp_path, capsys, case, command):
    # numpy's overflow warning used to come first, and decompose then
    # failed on an inf with a message that named no overflow
    g = HalfSpaceGrid(((-8.0, 8.0),), (64,), 1e-3, 8.0, 16)
    values = np.zeros((64, 16))
    values[28:36, 4:9] = 1e200 if case == "huge_values" else 3.0
    path = tmp_path / "f.gtnt"
    write_grid_function(GridFunction(g, values), path)
    ini = tmp_path / "c.ini"
    ini.write_text("" if case == "huge_values" else f"[params]\n{case}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--config", str(ini), "--grid", "64,16", "--out", str(tmp_path / "out"),
                   command, "--input", str(path)])
    assert not caught
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numeric error: overflow")


def test_independence_of_the_zero_function_is_a_numeric_error(tmp_path, capsys):
    # every norm of the sweep is 0, so no ratio between them exists
    g = HalfSpaceGrid(((-8.0, 8.0),), (64,), 1e-3, 8.0, 16)
    path = tmp_path / "zero.gtnt"
    write_grid_function(GridFunction.zero(g), path)
    rc = main(["--out", str(tmp_path), "--grid", "64,16", "independence",
               "--input", str(path)])
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "non-finite or zero norm in the sweep" in err


@pytest.mark.parametrize("defect", ["coarser_grid", "missing_row",
                                    "duplicate_row", "off_node_row", "two_columns"])
def test_csv_input_must_match_the_grid(tmp_path, capsys, defect):
    # a 64-node file or a 2-D file on the 128-node grid, or one row missing,
    # repeated or half a cell off its node: no row may snap or zero-fill
    nx = 64 if defect == "coarser_grid" else 128
    g = HalfSpaceGrid(((-8.0, 8.0),), (nx,), 1e-3, 8.0, 8)
    if defect == "two_columns":
        g = HalfSpaceGrid(((-8.0, 8.0),) * 2, (16, 8), 1e-3, 8.0, 8)
    path = tmp_path / "f.csv"
    write_grid_function(GridFunction(g, np.ones((g.n_spatial, 8))), path)
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


def test_carleson_pairing_with_a_2d_function_and_a_1d_measure(tmp_path, measure_file, capsys):
    # the norm runs on the 1-D dictionary; the pairing meets the 2-D grid
    g = HalfSpaceGrid(((-8.0, 8.0), (-8.0, 8.0)), (8, 8), 1e-3, 8.0, 4)
    write_grid_function(GridFunction(g, np.ones((g.n_spatial, g.nt))), tmp_path / "f2.gtnt")
    assert main(["--out", str(tmp_path), "carleson", "--measure", str(measure_file),
                 "--function", str(tmp_path / "f2.gtnt"), "--infer-grid"]) == EXIT_PRECONDITION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "spatial coordinates" in err


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


@pytest.fixture(scope="module")
def manifest_data(tmp_path_factory, input_file):
    """The manifest of a decomposition of input_file, each atom file named
    by its absolute path so that a copy elsewhere still finds it."""
    out = tmp_path_factory.mktemp("decomposed")
    assert main(["--out", str(out), "decompose", "--input", str(input_file)]) == 0
    data = json.loads((out / "decomposition" / "decomposition.json").read_text())
    for entry in data["terms"]:
        entry["atom_file"] = str(out / "decomposition" / entry["atom_file"])
    return data


@pytest.mark.parametrize("key, value", [
    ("q", "abc"), ("radius", -1), ("center", "xy"), ("alpha", -1), ("lambda", "x"),
    ("source_norm", "x"), ("residual_mass", "x"), ("diagnostics", 5), ("audit", 7),
])
def test_embed_names_the_manifest_of_a_value_of_the_wrong_type(tmp_path, capsys,
                                                               manifest_data, key, value):
    data = json.loads(json.dumps(manifest_data))
    if key in ("radius", "center"):
        data["terms"][0]["ball"][key] = value
    elif key == "lambda":
        data["terms"][0][key] = value
    else:
        data[key] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    rc = main(["--out", str(tmp_path), "embed", "--input", str(path)])
    assert rc == EXIT_PRECONDITION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and str(path) in err


def _underflow_error(capsys):
    """One line on stderr, and it names the underflow of gamma(B)."""
    err = capsys.readouterr().err.strip()
    return len(err.splitlines()) == 1 and \
        "gamma(B) is 0 in floats" in err and "underflows past |y| of about 27" in err


def test_carleson_on_a_box_where_gamma_underflows_is_a_numeric_error(
        tmp_path, measure_file, capsys):
    # past |y| of about 27 some dictionary balls have gamma(B) = 0 in floats:
    # a ball whose tent holds no mass reads 0, but mass over gamma(B) = 0
    # may not turn NaN and drop out of the norm.  The far point sits at the
    # dictionary center y = -64 + 40 * 128 / 255, below the caps of its balls
    ini = tmp_path / "c.ini"
    ini.write_text("[grid]\nbox_lo = -64\nbox_hi = 64\nnx = 256\n")
    far = tmp_path / "far.csv"
    y = float(np.linspace(-64.0, 64.0, 256)[40])
    assert y < -30.0
    far.write_text(measure_file.read_text() + f"{y!r},0.002,0.5\n")
    for mu, want in ((measure_file, 0), (far, EXIT_NUMERIC)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["--config", str(ini), "--out", str(tmp_path), "carleson",
                       "--measure", str(mu)])
        assert not caught
        assert rc == want
    assert _underflow_error(capsys)


@pytest.mark.parametrize("command", ["norm", "decompose"])
def test_cone_functionals_on_a_box_where_gamma_underflows_are_a_numeric_error(
        tmp_path, capsys, command):
    # f = 1 reaches cells past |y| of about 27, where every gamma(B) of a
    # cone window is 0 in floats: the division itself is the error
    g = HalfSpaceGrid(((-64.0, 64.0),), (256,), 1e-3, 8.0, 32)
    path = tmp_path / "one.gtnt"
    write_grid_function(GridFunction(g, np.ones((g.n_spatial, g.nt))), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--out", str(tmp_path), command, "--infer-grid", "--input", str(path)])
    assert not caught
    assert rc == EXIT_NUMERIC
    assert _underflow_error(capsys)


def test_a_central_bump_on_a_box_where_gamma_underflows_runs(tmp_path, capsys):
    # far dictionary balls have gamma(B) = 0 in floats, but no cell of the
    # bump reaches them: the doubling sup skips them, a ball whose tent holds
    # no mass reads 0, and nothing warns
    g = HalfSpaceGrid(((-64.0, 64.0),), (1024,), 1e-3, 8.0, 64)
    path = tmp_path / "bump.gtnt"
    write_grid_function(random_bump(g, np.random.default_rng(0)), path)
    ini = tmp_path / "inf.ini"
    ini.write_text("[params]\np = inf\n")
    for args in (["decompose"], ["--config", str(ini), "norm"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*args[:-1], "--out", str(tmp_path), args[-1], "--infer-grid",
                       "--input", str(path)])
        assert not caught
        assert rc == 0
    assert capsys.readouterr().err == ""
    rep = json.loads((tmp_path / "decompose.json").read_text())
    assert rep["residual_mass"] == 0.0 and rep["n_atoms"] > 0
    assert np.isfinite(json.loads((tmp_path / "norm.json").read_text())["norm"])


@pytest.mark.parametrize("defect", ["short_header", "cut_header", "short_payload",
                                    "bad_dimension", "bad_version", "nan_payload"])
def test_malformed_gtnt_is_a_precondition_error(tmp_path, input_file, capsys,
                                                defect):
    # cut inside the header (6 and 20 bytes) or the payload (8 bytes short),
    # a dimension field of 3, a version field of 2, or a NaN value
    raw = input_file.read_bytes()
    bad = tmp_path / "bad.gtnt"
    bad.write_bytes({"short_header": raw[:6], "cut_header": raw[:20],
                     "short_payload": raw[:-8],
                     "bad_dimension": raw[:8] + struct.pack("<I", 3) + raw[12:],
                     "bad_version": raw[:4] + struct.pack("<I", 2) + raw[8:],
                     "nan_payload": raw[:-8] + struct.pack("<d", np.nan)}[defect])
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
_LIST_MODULES = """
import sys
print(" ".join(m for m in sys.modules if m in {names!r} or m.split(".")[0] in {names!r}))
"""


def _modules_after(tmp_path, script, names=("scipy",)):
    """Run `script` in a fresh interpreter; return the modules it loaded that
    are named in `names` or lie in a package named there."""
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    listing = _LIST_MODULES.format(names=tuple(names))
    proc = subprocess.run([sys.executable, "-c", script + listing],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_import_and_independence_load_no_scipy(tmp_path):
    loaded = _modules_after(tmp_path, """
from gausstent.cli import main
assert main(["--out", "out", "--grid", "64,16", "independence"]) == 0
""")
    assert loaded == set()


def test_import_loads_no_thread_pool(tmp_path):
    # the worker pool's modules are imported by verify's pool alone
    assert _modules_after(tmp_path, "import gausstent.cli",
                          ("concurrent.futures", "multiprocessing")) == set()


def test_package_import_loads_no_module(tmp_path):
    # the package re-exports nothing: a name is imported from its module
    assert _modules_after(tmp_path, "import gausstent",
                          ("gausstent", "numpy")) == {"gausstent"}


def test_independence_of_an_input_draws_no_generator(tmp_path):
    _pinned_inputs(tmp_path)
    loaded = _modules_after(tmp_path, """
from gausstent.cli import main
assert main(["--grid", "128,32", "--out", "out", "independence", "--input", "f.gtnt"]) == 0
""", ("numpy.random", "secrets"))
    assert loaded == set()


def test_dictionary_commands_load_no_scipy(tmp_path):
    _pinned_inputs(tmp_path)
    loaded = _modules_after(tmp_path, """
from gausstent.cli import main
assert main(["--config", "c.ini", "--grid", "128,32", "--out", "out", "norm",
             "--input", "f.gtnt"]) == 0
assert main(["--grid", "128,32", "--out", "out", "carleson", "--measure", "mu.csv"]) == 0
""")
    assert loaded == set()


def test_decompose_loads_no_scipy(tmp_path):
    # the distance transforms and the 1-D erfc are numpy and Python floats
    for sup in [], ["--sup"]:
        loaded = _modules_after(tmp_path, f"""
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
    loaded = _modules_after(tmp_path, """
from gausstent.cli import main
assert main(["--out", "out", "--grid", "128,32", "embed"]) == 0
assert main(["--out", "out", "--grid", "128,32", "verify"]) == 0
""")
    assert loaded == set()


def test_two_d_runs_with_scipy_blocked(tmp_path):
    # a None entry in sys.modules makes every scipy import raise: 2-D gamma(B)
    # and the 2-D commands run on numpy alone
    (tmp_path / "c.ini").write_text("[params]\np = inf\n")
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", """
import sys
sys.modules["scipy"] = None
import numpy as np
from gausstent.cli import main
from gausstent.families import random_bump
from gausstent.geometry import Ball, gamma_ball
from gausstent.grid import HalfSpaceGrid, write_grid_function
assert gamma_ball(Ball((0.5, -0.5), 0.3)) > 0
g = HalfSpaceGrid(((-4.0, 4.0), (-4.0, 4.0)), (32, 32), 1e-3, 8.0, 8)
write_grid_function(random_bump(g, np.random.default_rng(0)), "f.gtnt")
for args in (["--config", "c.ini", "--out", "out", "norm"],
             ["--out", "out", "decompose"], ["--out", "out", "decompose", "--sup"]):
    assert main([*args, "--infer-grid", "--input", "f.gtnt"]) == 0, args
"""], cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert _load(tmp_path / "out", "decompose.json")["n_atoms"] > 0


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
