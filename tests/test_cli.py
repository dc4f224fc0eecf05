"""Config ingestion, artifacts, sweep, info, and the validation suite."""

import argparse
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

from spintrack import cli


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def small_explicit_config(out_dir, **overrides):
    explicit = {
        "hbar": 0.1,
        "mass": 1.0,
        "alpha": 1e-4,
        "beta": 1e-4,
        "rho": 100.0,
        "p0": 40.0 / 3.0,
        "sigma": 0.025,
        "trunc_a": 0.5,
        "half_length": 1.5,
        "cluster_distance": 0.5,
        "spacing": 0.12,
        "num_spins": 2,
        "num_points": 120,
        "t_final": 0.01,
        "num_steps": 25,
    }
    explicit.update(overrides)
    return {"explicit": explicit, "out_dir": str(out_dir)}


def test_info_reference_preset(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"preset": {"epsilon": 0.1, "num_spins": 8}})
    assert cli.main(["info", "-c", cfg]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["num_channels"] == 256
    assert info["dt"] == pytest.approx(0.065 / 350)
    assert info["predicted_arrival"] == pytest.approx(0.0375)
    assert info["num_spins"] == 8
    assert info["state_vector_bytes"] == 256 * 1000 * 16
    assert info["working_set_bytes"] == cli.WORKING_SET_VECTORS * info["state_vector_bytes"]


@pytest.mark.parametrize("p0", [0.0, -40.0 / 3.0], ids=["at-rest", "negative"])
def test_predicted_arrival_uses_the_packets_speed(tmp_path, capsys, p0):
    # the two packets move at |p0| in opposite directions; at rest they never arrive
    expected = None if p0 == 0.0 else pytest.approx(0.5 / (40.0 / 3.0))
    payload = small_explicit_config(tmp_path / "out", p0=p0)
    cfg = _write(tmp_path / "cfg.json", payload)
    assert cli.main(["info", "-c", cfg]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["predicted_arrival"] == expected
    if p0 == 0.0:
        assert cli.main(["run", "-c", cfg]) == cli.EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["resolved"]["predicted_arrival"] is None


def test_info_memory_estimate_n12(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"preset": {"epsilon": 0.1, "num_spins": 12}})
    assert cli.main(["info", "-c", cfg]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["state_vector_bytes"] == 4096 * 1000 * 16  # ~65.5 MB per vector


def test_info_regime_warning_goes_to_stderr(tmp_path, capsys):
    # N=2: the detector spacing d = 0.05 exceeds sigma = 0.025
    cfg = _write(tmp_path / "cfg.json", {"preset": {"epsilon": 0.1, "num_spins": 2}})
    assert cli.main(["info", "-c", cfg]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["num_spins"] == 2
    assert "warning: d < sigma violated" in captured.err


def test_info_default_rho_is_exact(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"preset": {"epsilon": 0.1, "num_spins": 4}})
    assert cli.main(["info", "-c", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["rho"] == 100.0


def test_info_rejects_odd_spin_count(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"preset": {"epsilon": 0.1, "num_spins": 5}})
    assert cli.main(["info", "-c", cfg]) == cli.EXIT_CONFIG


def test_malformed_config_names_key(tmp_path, capsys):
    cfg = _write(
        tmp_path / "cfg.json",
        {"preset": {"epsilon": 0.1, "num_spins": 4, "bogus_knob": 3}},
    )
    assert cli.main(["run", "-c", cfg]) == cli.EXIT_CONFIG
    assert "bogus_knob" in capsys.readouterr().err


def _explicit_without(key):
    payload = small_explicit_config("unused")
    del payload["explicit"][key]
    return payload


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"preset": {"num_spins": 4}}, "epsilon"),
        (_explicit_without("sigma"), "sigma"),
    ],
    ids=["preset-epsilon", "explicit-sigma"],
)
def test_missing_required_key_named(tmp_path, capsys, payload, key):
    cfg = _write(tmp_path / "cfg.json", payload)
    assert cli.main(["run", "-c", cfg]) == cli.EXIT_CONFIG
    assert f"missing key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("run", {"preset": {"epsilon": "abc", "num_spins": 4}}, "epsilon"),
        ("info", {"preset": {"epsilon": "abc", "num_spins": 4}}, "epsilon"),
        ("run", {"preset": {"epsilon": 0.1, "num_spins": 4, "num_points": "many"}}, "num_points"),
        ("sweep", {"epsilon": 0.1, "num_spins": ["x"], "rho": [100.0]}, "num_spins"),
        ("run", small_explicit_config("unused", kappa="two"), "kappa"),
        (
            "run",
            {"preset": {"epsilon": 0.1, "num_spins": 4.7, "num_steps": 5, "t_final": 0.001}},
            "num_spins",
        ),
        ("info", {"preset": {"epsilon": 0.1, "num_spins": 4, "num_points": 999.9}}, "num_points"),
        ("sweep", {"epsilon": 0.1, "num_spins": [2], "rho": [100.0], "parallelism": 2.5,
                   "num_steps": 5, "t_final": 0.001}, "parallelism"),
        ("run", {"preset": {"epsilon": 0.1, "num_spins": True}}, "num_spins"),
        ("info", {"preset": {"epsilon": True, "num_spins": 4}}, "epsilon"),
        ("info", small_explicit_config("unused", beta=True), "beta"),
        ("info", {"preset": {"epsilon": 0.1, "num_spins": 4, "rho": "nan", "t_final": "1e-3"}}, "rho"),
        ("info", {"preset": {"epsilon": 0.1, "num_spins": "4"}}, "num_spins"),
        ("info", {"preset": {"epsilon": 0.1, "num_spins": 4, "rho": float("nan")}}, "rho"),
        ("info", {"preset": {"epsilon": 0.1, "num_spins": 4}, "out_dir": 5}, "out_dir"),
        ("sweep", {"epsilon": 0.1, "num_spins": [2], "rho": ["100"]}, "rho"),
        ("info", {"preset": {"epsilon": 0.1, "num_spins": 4, "rho": 10**400}}, "rho"),
        ("info", {"preset": 5}, "'preset' must be an object"),
        ("info", {"preset": {"epsilon": 0.1, "num_spins": 4}, "solver": 5}, "'solver' must be an object"),
        ("info", {"preset": {"epsilon": 0.1, "num_spins": 4}, "solver": {"rtol": 0.5}}, "rtol"),
        ("info", {"preset": {"epsilon": 0.1, "num_spins": 4, "boundary_mode": "open"}}, "boundary_mode"),
        ("info", {"preset": {"epsilon": 0.1, "num_spins": 4}, "arrival_drop": 1.5}, "arrival_drop"),
        ("sweep", {"epsilon": 0.1, "num_spins": [3], "rho": [100.0]}, "num_spins"),
    ],
)
def test_malformed_value_is_config_error(tmp_path, monkeypatch, capsys, command, payload, key):
    monkeypatch.chdir(tmp_path)  # a value read wrongly would run into the default out_dir
    cfg = _write(tmp_path / "cfg.json", payload)
    assert cli.main([command, "-c", cfg]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read config"),
        ("{", "is not valid JSON"),
        ("[]", "root must be a JSON object"),
        (b'{"out_dir": "\xff"}', "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["missing", "not-json", "not-object", "not-utf8"],
)
def test_unloadable_config_file_is_config_error(tmp_path, capsys, content, message):
    path = tmp_path / "cfg.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    assert cli.main(["info", "-c", str(path)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key", ["rho", "kappa", "num_points", "num_steps", "t_final", "boundary_mode"])
def test_null_preset_key_takes_default(tmp_path, capsys, key):
    preset = {"epsilon": 0.1, "num_spins": 4}
    infos = []
    for name, section in (("left_out", preset), ("null", {**preset, key: None})):
        cfg = _write(tmp_path / f"{name}.json", {"preset": section})
        assert cli.main(["info", "-c", cfg]) == 0
        infos.append(capsys.readouterr().out)
    assert infos[0] == infos[1]


@pytest.mark.parametrize(
    "key, value, internal",
    [("sigma", -1, "sigma_w"), ("kappa", 3, "coupling_factor")],
)
def test_config_error_names_config_key(tmp_path, capsys, key, value, internal):
    cfg = _write(tmp_path / "cfg.json", small_explicit_config(tmp_path / "out", **{key: value}))
    assert cli.main(["run", "-c", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and internal not in err


def test_accepted_key_sets():
    preset = {
        "epsilon", "num_spins", "rho", "kappa", "num_points", "num_steps", "t_final", "boundary_mode",
    }
    assert cli._PRESET_KEYS == preset
    assert cli._EXPLICIT_KEYS == {
        "hbar", "mass", "alpha", "beta", "rho", "p0", "sigma", "trunc_a", "x0", "kappa",
        "half_length", "cluster_distance", "spacing", "num_spins",
        "num_points", "t_final", "num_steps", "boundary_mode",
    }
    assert cli._SOLVER_KEYS == {"method", "rtol", "max_iter"}
    assert cli._SWEEP_KEYS == preset | {"solver", "out_dir", "parallelism", "arrival_drop"}


def test_readme_configs_match_schema(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    run, sweep = (json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S))
    run["out_dir"] = str(tmp_path / run["out_dir"])
    setup = cli.resolve_run_config(run)
    assert setup.geom.num_spins == run["preset"]["num_spins"]
    assert set(sweep) <= cli._SWEEP_KEYS


def test_preset_and_explicit_mutually_exclusive(tmp_path, capsys):
    payload = small_explicit_config(tmp_path / "out")
    payload["preset"] = {"epsilon": 0.1, "num_spins": 4}
    cfg = _write(tmp_path / "cfg.json", payload)
    assert cli.main(["run", "-c", cfg]) == cli.EXIT_CONFIG


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "cfg.json", small_explicit_config(out))
    assert cli.main(["run", "-c", cfg]) == 0

    timeseries = (out / "timeseries.csv").read_text().strip().split("\n")
    assert timeseries[0] == "t,norm2,energy,UC,OS,LRC_left,LRC_right,MT"
    assert len(timeseries) == 1 + 26  # header + K+1 rows

    channels = (out / "channels_final.csv").read_text().strip().split("\n")
    assert channels[0] == "mask,probability"
    assert len(channels) == 1 + 4
    assert channels[1].startswith("00,")

    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["resolved"]["num_spins"] == 2
    res = summary["results"]
    assert list(res)[:6] == ["UC", "OS", "LRC_left", "LRC_right", "MT", "total"]  # timeseries.csv's order
    assert res["total"] == pytest.approx(1.0, abs=1e-9)
    # packet has not reached the detectors yet at this t_final
    assert res["UC"] == pytest.approx(1.0, abs=1e-6)
    assert res["norm2_max_drift"] <= 1e-10
    assert 0.0 < res["max_step_residual"] <= summary["resolved"]["solver"]["rtol"]
    assert isinstance(res["capacitance_iterations_max"], int)
    assert res["capacitance_iterations_max"] >= res["capacitance_iterations_mean"] >= 0.0
    assert res["peak_rss_mb"] >= summary["resolved"]["state_vector_bytes"] / 1e6 > 0.0
    assert res["stored_channels"] == 3  # one per mirror orbit of the 4 channels
    assert res["refined_steps"] == 0


def test_summary_appears_only_whole(tmp_path, monkeypatch):
    # summary.json is written last and renamed into place: a run leaves the
    # three artifacts and nothing else, and a write cut short (here by a
    # Ctrl-C after part of the object) leaves no summary.json
    out = tmp_path / "out"
    cfg = _write(tmp_path / "cfg.json", small_explicit_config(out))
    assert cli.main(["run", "-c", cfg]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["channels_final.csv", "summary.json", "timeseries.csv"]
    (out / "summary.json").unlink()

    def dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:200])
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.json, "dump", dump)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", "-c", cfg])
    assert not (out / "summary.json").exists()


def test_run_rho_zero_override(tmp_path):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "cfg.json", small_explicit_config(out, rho=0.0, t_final=0.05, num_steps=40)
    )
    assert cli.main(["run", "-c", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["resolved"]["rho"] == 0.0
    assert summary["results"]["UC"] == pytest.approx(1.0, abs=1e-12)


def test_run_reference_preset_summary(tmp_path):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "cfg.json",
        {"preset": {"epsilon": 0.1, "num_spins": 4, "rho": 100.0}, "out_dir": str(out)},
    )
    assert cli.main(["run", "-c", cfg]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    assert res["UC"] == pytest.approx(0.6596, abs=0.02)
    assert res["OS"] == pytest.approx(0.2753, abs=0.02)
    assert res["refined_steps"] == 0


@pytest.mark.parametrize("x0, warns", [(0.0, False), (-1.3, True)], ids=["centre", "near-boundary"])
def test_run_warns_when_the_packet_reaches_a_boundary(tmp_path, capsys, x0, warns):
    # a packet started 0.2 from -L spreads into the 4 sigma next to it
    out = tmp_path / "out"
    assert cli.main(["run", "-c", _write(tmp_path / "cfg.json", small_explicit_config(out, x0=x0))]) == 0
    summary = json.loads((out / "summary.json").read_text())
    mass = summary["results"]["boundary_mass"]
    assert (mass > cli.BOUNDARY_MASS_LIMIT) == warns
    boundary_notes = [note for note in summary["warnings"] if note.startswith("boundary mass")]
    assert len(boundary_notes) == warns
    err = capsys.readouterr().err
    assert all(f"warning: {note}" in err for note in boundary_notes)


def test_run_profile_phases_are_positive_and_within_the_wall(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "cfg.json", {"preset": {"epsilon": 0.1, "num_spins": 4, "num_steps": 20,
                                                    "t_final": 0.065 * 20 / 350}, "out_dir": str(out)})
    assert cli.main(["run", "-c", cfg]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    profile = res["profile"]
    assert set(profile) == {"assembly", "setup", "detector_solve", "lanes", "residual", "record"}
    assert all(seconds > 0.0 for seconds in profile.values()), profile
    # wall_seconds times `run` alone; assembly precedes it
    assert sum(profile.values()) - profile["assembly"] <= res["wall_seconds"]
    assert res["threads"] in (1, 2)


def _run_preset_n6(out, script=None):
    """`spintrack run` of the N=6 preset into `out`, in this process or by `script` in a fresh one."""
    cfg = _write(out.with_suffix(".json"), {"preset": {"epsilon": 0.1, "num_spins": 6}, "out_dir": str(out)})
    if script is None:
        assert cli.main(["run", "-c", cfg]) == 0
    else:
        _python("-c", script, cfg)
    return json.loads((out / "summary.json").read_text())["results"]["threads"]


# Limits this process, and so every thread it starts, to one CPU, then runs.
_ONE_CPU_SCRIPT = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from spintrack import cli
sys.exit(cli.main(["run", "-c", sys.argv[1]]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="sets the CPU affinity")
def test_one_cpu_run_steps_on_one_thread_with_the_same_artifacts(tmp_path):
    # as under `taskset -c 0`; the artifacts do not depend on the thread count
    one_cpu = _run_preset_n6(tmp_path / "one_cpu", _ONE_CPU_SCRIPT)
    here = _run_preset_n6(tmp_path / "here")
    assert one_cpu == 1
    assert here == min(2, cli._cpu_count())
    for name in ("timeseries.csv", "channels_final.csv"):
        assert (tmp_path / "one_cpu" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def test_sweep_points_step_on_their_share_of_the_cpus(tmp_path):
    # each point of N=6 is large enough for two threads, which a point takes
    # only when the concurrent points leave it two CPUs
    for parallelism in (1, 2):
        out = tmp_path / f"p{parallelism}"
        cfg = _write(tmp_path / "sweep.json", {"epsilon": 0.1, "num_spins": [6], "rho": [50.0, 100.0],
                                               "num_steps": 4, "t_final": 0.065 * 4 / 350,
                                               "parallelism": parallelism, "out_dir": str(out)})
        assert cli.main(["sweep", "-c", cfg]) == cli.EXIT_OK
        expected = max(1, min(2, cli._cpu_count() // parallelism))
        for rho in ("50", "100"):
            summary = json.loads((out / f"N6_rho{rho}" / "summary.json").read_text())
            assert summary["results"]["threads"] == expected, (parallelism, rho)


def test_run_deterministic_csv_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = _write(tmp_path / "c1.json", small_explicit_config(out1))
    cfg2 = _write(tmp_path / "c2.json", small_explicit_config(out2))
    assert cli.main(["run", "-c", cfg1]) == 0
    assert cli.main(["run", "-c", cfg2]) == 0
    assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
    assert (out1 / "channels_final.csv").read_bytes() == (out2 / "channels_final.csv").read_bytes()


def test_info_roundtrips_with_summary(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "cfg.json", small_explicit_config(out))
    assert cli.main(["info", "-c", cfg]) == 0
    resolved_before = json.loads(capsys.readouterr().out)
    assert cli.main(["run", "-c", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["resolved"] == resolved_before


def test_sweep_small_grid(tmp_path):
    out = tmp_path / "sweep"
    cfg = _write(
        tmp_path / "sweep.json",
        {
            "epsilon": 0.1,
            "num_spins": [2],
            "rho": [0.0, 10.0],
            "num_points": 120,
            "num_steps": 20,
            "t_final": 0.02,
            "parallelism": 2,
            "out_dir": str(out),
        },
    )
    assert cli.main(["sweep", "-c", cfg]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "N,rho,LRC_one_side,two_LRC,OS,UC,MT,row_sum,arrival_time,wall_seconds"
    assert len(rows) == 3
    assert rows[1].startswith("2,0")
    assert rows[2].startswith("2,10")
    for line in rows[1:]:
        cells = line.split(",")
        row_sum = float(cells[7])
        assert row_sum == pytest.approx(1.0, abs=1e-10)
    # per-point artifacts exist
    assert (out / "N2_rho0" / "summary.json").exists()
    assert (out / "N2_rho10" / "timeseries.csv").exists()


def test_sweep_point_resolves_as_run(tmp_path, capsys):
    shared = {
        "epsilon": 0.1,
        "kappa": 2,
        "boundary_mode": "symmetrized",
        "num_points": 120,
        "num_steps": 10,
        "t_final": 0.01,
    }
    out = tmp_path / "sweep"
    sweep = {
        **shared,
        "num_spins": [2],
        "rho": [50.0],
        "solver": {"rtol": 1e-10},
        "arrival_drop": 0.02,
        "parallelism": 1,
        "out_dir": str(out),
    }
    assert cli.main(["sweep", "-c", _write(tmp_path / "sweep.json", sweep)]) == 0
    resolved = json.loads((out / "N2_rho50" / "summary.json").read_text())["resolved"]
    run = {
        "preset": {**shared, "num_spins": 2, "rho": 50.0},
        "solver": {"rtol": 1e-10},
        "arrival_drop": 0.02,
    }
    capsys.readouterr()
    assert cli.main(["info", "-c", _write(tmp_path / "run.json", run)]) == 0
    assert resolved == json.loads(capsys.readouterr().out)


def test_sweep_rejects_negative_parallelism(tmp_path, capsys):
    out = tmp_path / "sweep"
    payload = {"epsilon": 0.1, "num_spins": [2], "rho": [100.0], "num_points": 120,
               "num_steps": 5, "t_final": 0.005, "out_dir": str(out), "parallelism": -4}
    cfg = _write(tmp_path / "sweep.json", payload)
    assert cli.main(["sweep", "-c", cfg]) == cli.EXIT_CONFIG
    assert "parallelism" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_parallelism_zero_counts_this_process_cpus(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    seen = []

    def run_points(points, workers):
        seen.append(workers)
        values = dict.fromkeys(("LRC_one_side", "two_LRC", "OS", "UC", "MT", "row_sum"), 0.25)
        return [{"N": p["preset"]["num_spins"], "rho": p["preset"]["rho"], **values,
                 "arrival_time": None, "wall_seconds": 0.0} for p in points]

    monkeypatch.setattr(cli, "_run_points", run_points)
    cfg = _write(tmp_path / "sweep.json", {"epsilon": 0.1, "num_spins": [2, 4],
                                           "rho": [50.0, 100.0], "parallelism": 0,
                                           "out_dir": str(tmp_path / "sweep")})
    assert cli.main(["sweep", "-c", cfg]) == cli.EXIT_OK
    assert seen == [1]


def test_sweep_empty_list_rejected(tmp_path, capsys):
    cfg = _write(
        tmp_path / "sweep.json",
        {"epsilon": 0.1, "num_spins": [], "rho": [100.0]},
    )
    assert cli.main(["sweep", "-c", cfg]) == cli.EXIT_CONFIG
    assert "num_spins" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spins, rhos",
    [([2], [50.0000001, 50.0000002]), ([2], [50.0, 50.0]), ([2, 2], [50.0])],
    ids=["rho-within-6-digits", "rho-repeated", "num-spins-repeated"],
)
def test_sweep_rejects_points_sharing_an_output_directory(tmp_path, capsys, spins, rhos):
    # point directories are named N{n}_rho{r:g}; two points in one directory
    # would overwrite each other's artifacts
    out = tmp_path / "sweep"
    cfg = _write(
        tmp_path / "sweep.json",
        {
            "epsilon": 0.1,
            "num_spins": spins,
            "rho": rhos,
            "num_points": 120,
            "num_steps": 5,
            "t_final": 0.005,
            "parallelism": 1,
            "out_dir": str(out),
        },
    )
    assert cli.main(["sweep", "-c", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert str(out / "N2_rho50") in err
    assert not out.exists()


def _coarse_sweep(tmp_path):
    # the N=8 point collides detectors on a deliberately coarse grid
    return _write(
        tmp_path / "sweep.json",
        {
            "epsilon": 0.1,
            "num_spins": [2, 8],
            "rho": [100.0],
            "num_points": 40,
            "num_steps": 5,
            "t_final": 0.005,
            "parallelism": 1,
            "out_dir": str(tmp_path / "sweep"),
        },
    )


def _large_alpha_config(tmp_path, **solver):
    # a spin energy far above the preset's takes the detector-capacitance
    # iteration tens of steps
    payload = small_explicit_config(tmp_path / "out", alpha=1e3, rho=1e6, num_spins=4)
    return _write(tmp_path / "cfg.json", {**payload, "solver": solver})


def test_run_solves_large_alpha(tmp_path, capsys):
    cfg = _large_alpha_config(tmp_path)
    assert cli.main(["run", "-c", cfg]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["results"]["max_step_residual"] <= 1e-12
    # the step is coarse for this spin energy: the run's note reaches the
    # summary and, once, stderr
    coarse = [note for note in summary["warnings"] if "phases will be inaccurate" in note]
    assert len(coarse) == 1
    assert capsys.readouterr().err.count(f"warning: {coarse[0]}\n") == 1


def test_run_exits_3_when_the_direct_solve_fails(tmp_path, capsys, monkeypatch):
    # one restart cycle of two iterations is too few for this detector system
    monkeypatch.setattr("spintrack.solver.CAPACITANCE_RESTART", 2)
    cfg = _large_alpha_config(tmp_path, max_iter=1)
    assert cli.main(["run", "-c", cfg]) == cli.EXIT_SOLVER
    # the notes the run had made reach stderr before the failure
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert err[0].startswith("warning: d < sigma violated")
    assert err[1].startswith("warning: dt=0.0004 exceeds 2*hbar/|<H>|")
    assert err[2].startswith("solver failure: step 1: detector capacitance solve stopped")
    assert not (tmp_path / "out" / "summary.json").exists()


def test_failed_sweep_point_keeps_its_notes(tmp_path, capsys, monkeypatch):
    # one iteration is too few for the detector system from step 2 on; each
    # point prints its regime note and its coarse-step note before it fails
    monkeypatch.setattr("spintrack.solver.CAPACITANCE_RESTART", 1)
    cfg = _write(tmp_path / "sweep.json", {"epsilon": 0.1, "num_spins": [2], "rho": [100.0, 150.0],
                                           "num_steps": 10, "t_final": 0.065, "solver": {"max_iter": 1},
                                           "parallelism": 1, "out_dir": str(tmp_path / "sweep")})
    assert cli.main(["sweep", "-c", cfg]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err.splitlines()
    for rho in (100, 150):
        prefix = f"N=2 rho={rho}: "
        lines = [line[len(prefix):] for line in err if line.startswith(prefix)]
        assert len(lines) == 3
        assert lines[0].startswith("warning: d < sigma violated")
        assert lines[1].startswith("warning: dt=0.0065 exceeds 2*hbar/|<H>|")
        assert lines[2].startswith("FAILED: step 2: detector capacitance solve stopped")


def test_run_derives_its_regime_notes_once(tmp_path, capsys, monkeypatch):
    # resolving the config derives the notes; the warning before the run
    # and summary.json's warnings both report that one list
    calls = []
    real = cli.model.validate_regime

    def validate_regime(params, geom):
        calls.append(geom.num_spins)
        return real(params, geom)

    monkeypatch.setattr("spintrack.model.validate_regime", validate_regime)
    preset = {"epsilon": 0.1, "num_spins": 2, "num_steps": 10, "t_final": 0.065 * 10 / 350}
    cfg = _write(tmp_path / "cfg.json", {"preset": preset, "out_dir": str(tmp_path / "out")})
    assert cli.main(["run", "-c", cfg]) == cli.EXIT_OK
    assert calls == [2]
    (note,) = json.loads((tmp_path / "out" / "summary.json").read_text())["warnings"]
    assert note.startswith("d < sigma violated")
    assert capsys.readouterr().err == f"warning: {note}\n"


def test_obsolete_solver_method_key(tmp_path, capsys):
    # "direct" and "iterative" both select the one detector solve
    artifacts = []
    for method in ("direct", "iterative"):
        out = tmp_path / method
        payload = {**small_explicit_config(out), "solver": {"method": method}}
        assert cli.main(["run", "-c", _write(tmp_path / f"{method}.json", payload)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for timing in ("wall_seconds", "peak_rss_mb", "profile"):
            del summary["results"][timing]
        artifacts.append(
            [(out / name).read_bytes() for name in ("timeseries.csv", "channels_final.csv")] + [summary]
        )
    assert artifacts[0] == artifacts[1]
    for method in ("magic", 5):
        payload = {**small_explicit_config(tmp_path / "bad"), "solver": {"method": method}}
        assert cli.main(["run", "-c", _write(tmp_path / "bad.json", payload)]) == cli.EXIT_CONFIG
        assert "'method'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "-c", "unused.json", "--solver", "iterative"])
    assert err.value.code == 2


def _count_simulations(monkeypatch):
    calls = []
    real = cli.simulate

    def simulate(setup, threads=2):
        calls.append(setup)
        return real(setup, threads)

    monkeypatch.setattr(cli, "simulate", simulate)
    return calls


def test_run_exits_4_when_out_dir_is_a_file(tmp_path, monkeypatch, capsys):
    # the unusable directory is found before the run, not after it
    calls = _count_simulations(monkeypatch)
    out = tmp_path / "out"
    out.write_text("not a directory")
    cfg = _write(tmp_path / "cfg.json", small_explicit_config(out))
    assert cli.main(["run", "-c", cfg]) == cli.EXIT_IO
    assert "\nI/O error: " in capsys.readouterr().err  # after the regime warning
    assert out.read_text() == "not a directory"
    assert not calls


def test_sweep_exits_4_when_out_dir_is_a_file(tmp_path, monkeypatch, capsys):
    calls = _count_simulations(monkeypatch)
    out = tmp_path / "sweep"
    out.write_text("not a directory")
    payload = {
        "epsilon": 0.1,
        "num_spins": [2, 4],
        "rho": [100.0],
        "num_points": 120,
        "num_steps": 5,
        "t_final": 0.005,
        "parallelism": 1,
        "out_dir": str(out),
    }
    assert cli.main(["sweep", "-c", _write(tmp_path / "sweep.json", payload)]) == cli.EXIT_IO
    assert "I/O error: " in capsys.readouterr().err
    assert out.read_text() == "not a directory"
    assert not calls


def test_run_refuses_a_working_set_that_does_not_fit(tmp_path, monkeypatch, capsys):
    # WORKING_SET_VECTORS state vectors of 4 channels x 120 points: the run
    # fits in exactly that much memory, and with one byte less it exits 2
    # before assembling
    needed = cli.WORKING_SET_VECTORS * 4 * 120 * 16
    cfg = _write(tmp_path / "cfg.json", small_explicit_config(tmp_path / "out"))
    monkeypatch.setattr(cli, "_memory_bytes", lambda: needed)
    assert cli.main(["run", "-c", cfg]) == cli.EXIT_OK
    capsys.readouterr()

    def assemble_hamiltonian(*args, **kwargs):
        raise AssertionError("assembled a run that does not fit")

    monkeypatch.setattr(cli, "assemble_hamiltonian", assemble_hamiltonian)
    monkeypatch.setattr(cli, "_memory_bytes", lambda: needed - 1)
    assert cli.main(["run", "-c", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: the run needs about {needed} bytes" in err
    assert f"can get {needed - 1} bytes" in err
    assert cli.main(["info", "-c", cfg]) == cli.EXIT_OK  # info allocates nothing
    assert json.loads(capsys.readouterr().out)["working_set_bytes"] == needed
    out = tmp_path / "sweep"
    sweep = {"epsilon": 0.1, "num_spins": [2], "rho": [100.0], "num_points": 120,
             "num_steps": 5, "t_final": 0.005, "parallelism": 1, "out_dir": str(out)}
    assert cli.main(["sweep", "-c", _write(tmp_path / "sweep.json", sweep)]) == cli.EXIT_CONFIG
    assert "nan" in (out / "sweep.csv").read_text().split("\n")[1]


@pytest.mark.parametrize("command, key", [("info", "num_points"), ("run", "num_steps")])
def test_int_value_beyond_int64_is_config_error(tmp_path, capsys, command, key):
    # 2**70 is refused when the config is read, before any array is sized by it
    out = tmp_path / "nested" / "out"
    preset = {"epsilon": 0.1, "num_spins": 2, key: 2**70}
    cfg = _write(tmp_path / "cfg.json", {"preset": preset, "out_dir": str(out)})
    assert cli.main([command, "-c", cfg]) == cli.EXIT_CONFIG
    assert f"config error: preset config key '{key}': must fit in a 64-bit integer" in capsys.readouterr().err
    assert not (tmp_path / "nested").exists()


def test_memory_error_is_config_error(tmp_path, monkeypatch, capsys):
    # a run that runs out of memory exits 2 like one that the footprint check
    # refuses; nothing large is allocated: the MemoryError is raised by hand
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    cfg = _write(tmp_path / "cfg.json", small_explicit_config(tmp_path / "out"))
    with monkeypatch.context() as patch:
        patch.setattr("spintrack.model.build_grid", out_of_memory)
        assert cli.main(["info", "-c", cfg]) == cli.EXIT_CONFIG
        assert "config error: out of memory: Unable to allocate" in capsys.readouterr().err
    monkeypatch.setattr(cli, "simulate", out_of_memory)
    assert cli.main(["run", "-c", cfg]) == cli.EXIT_CONFIG
    assert "config error: out of memory: Unable to allocate" in capsys.readouterr().err
    sweep = {"epsilon": 0.1, "num_spins": [2], "rho": [100.0], "num_points": 120, "num_steps": 5,
             "t_final": 0.005, "parallelism": 1, "out_dir": str(tmp_path / "sweep")}
    assert cli.main(["sweep", "-c", _write(tmp_path / "sweep.json", sweep)]) == cli.EXIT_CONFIG
    assert "N=2 rho=100: FAILED: Unable to allocate" in capsys.readouterr().err


@pytest.mark.parametrize("num_spins", [4, 20])
def test_refused_run_leaves_no_output_directory(tmp_path, monkeypatch, capsys, num_spins):
    # one byte less than the N=4 preset needs (16 channels x 1000 points)
    monkeypatch.setattr(cli, "_memory_bytes", lambda: cli.WORKING_SET_VECTORS * 16 * 1000 * 16 - 1)
    out = tmp_path / "nested" / "out"
    config = {"preset": {"epsilon": 0.1, "num_spins": num_spins}, "out_dir": str(out)}
    assert cli.main(["run", "-c", _write(tmp_path / "cfg.json", config)]) == cli.EXIT_CONFIG
    assert "config error: the run needs about" in capsys.readouterr().err
    assert not (tmp_path / "nested").exists()


# Peak RSS of the N=6 preset above the interpreter after its imports, in
# state vectors; "full" forces the one-channel orbits of an input without
# mirror symmetry.  It reads VmHWM, the peak of this process image alone:
# ru_maxrss also keeps the peak of the image that exec replaced, which here
# is the test runner's.
_FOOTPRINT_SCRIPT = """
import sys
import numpy as np
from spintrack import cli, solver

def peak_bytes():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))

if sys.argv[1] == "full":
    solver._mirror_images = lambda h, values: np.arange(len(values))
setup = cli.resolve_run_config({"preset": {"epsilon": 0.1, "num_spins": 6}})
base = peak_bytes()
record = cli.simulate(setup).record
assert record.stored_channels == (36 if sys.argv[1] == "stored" else 64)
print((peak_bytes() - base) / cli._state_vector_bytes(setup))
"""


def _child_env(unset=()):
    """This process's environment with this package importable and the variables `unset` removed."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path_entries = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {key: value for key, value in os.environ.items() if key not in unset}
    env["PYTHONPATH"] = os.pathsep.join(path_entries)
    return env


def _python(*args, check=True, unset=()):
    """Run this interpreter on `args` in `_child_env(unset)`; returns the CompletedProcess."""
    return subprocess.run(
        [sys.executable, *args], env=_child_env(unset), capture_output=True, text=True, timeout=300, check=check
    )


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("path", ["stored", "full"])
def test_working_set_constant_covers_the_measured_peak(path):
    # the footprint check's constant is a measurement: a fresh process
    # running the preset on either stepping path stays within it
    vectors = float(_python("-c", _FOOTPRINT_SCRIPT, path).stdout)
    assert 0.0 < vectors <= cli.WORKING_SET_VECTORS


# Imports the modules named by its arguments in order, then prints its thread count.
_THREADS_SCRIPT = """
import importlib, os, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(len(os.listdir("/proc/self/task")))
"""


def _threads_after_importing(*modules):
    """Threads of a fresh process, with no BLAS thread setting, after it imports `modules`."""
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    return int(_python("-c", _THREADS_SCRIPT, *modules, unset=unset).stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_importing_the_package_first_keeps_blas_on_one_thread():
    assert _threads_after_importing("spintrack.cli") == 1


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="counts threads in /proc; OpenBLAS starts a pool only on 2 or more CPUs",
)
def test_importing_numpy_first_keeps_the_blas_pool():
    # control: the package sets no thread count once numpy has loaded OpenBLAS
    assert _threads_after_importing("numpy", "spintrack.cli") > 1


# Touches ~200 MB, then replaces itself with a preset run by exec.
_EXEC_SCRIPT = """
import os, sys
import numpy as np
ballast = np.ones(200 * 10**6 // 8)
os.execv(sys.executable, [sys.executable, "-m", "spintrack.cli", "run", "-c", sys.argv[1]])
"""


def test_peak_rss_is_the_runs_own_after_exec(tmp_path):
    # ru_maxrss keeps the 200 MB of the image that exec replaced; the
    # summary must report the run's own peak
    out = tmp_path / "out"
    cfg = _write(tmp_path / "cfg.json", {"preset": {"epsilon": 0.1, "num_spins": 2}, "out_dir": str(out)})
    _python("-c", _EXEC_SCRIPT, cfg)
    peak = json.loads((out / "summary.json").read_text())["results"]["peak_rss_mb"]
    assert 0.0 < peak < 150.0


def test_module_entry_exit_codes(tmp_path):
    # `python -m spintrack.cli` exits through `entry` with `main`'s code
    cfg = _write(tmp_path / "cfg.json", {"preset": {"epsilon": 0.1, "num_spins": 4}})
    done = _python("-m", "spintrack.cli", "info", "-c", cfg)
    assert json.loads(done.stdout)["num_channels"] == 16
    bad = _write(tmp_path / "bad.json", {"preset": {"epsilon": 0.1, "num_spins": 4}, "colour": 1})
    done = _python("-m", "spintrack.cli", "info", "-c", bad, check=False)
    assert done.returncode == cli.EXIT_CONFIG
    assert "config error:" in done.stderr


def test_memory_bytes_takes_the_lower_address_space_limit(monkeypatch):
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert 0 < cli._memory_bytes() <= physical
    monkeypatch.setattr(cli.resource, "getrlimit", lambda kind: (physical // 2, physical // 2))
    assert cli._memory_bytes() == physical // 2
    monkeypatch.setattr(cli.resource, "getrlimit", lambda kind: (physical * 2, physical * 2))
    assert cli._memory_bytes() == physical


def test_sweep_point_with_a_blocked_directory_fails_before_it_runs(tmp_path, monkeypatch, capsys):
    # the path of the rho = 150 point's directory is a regular file: that
    # point fails with an I/O error before it runs, after its regime note,
    # and the other point completes
    calls = _count_simulations(monkeypatch)
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "N2_rho150").write_text("")
    cfg = _write(tmp_path / "sweep.json", {"epsilon": 0.1, "num_spins": [2], "rho": [100.0, 150.0],
                                           "num_steps": 20, "t_final": 0.0037,
                                           "parallelism": 1, "out_dir": str(out)})
    assert cli.main(["sweep", "-c", cfg]) == cli.EXIT_IO
    assert [setup.params.rho for setup in calls] == [100.0]
    err = capsys.readouterr().err.splitlines()
    blocked = [line for line in err if line.startswith("N=2 rho=150: ")]
    assert len(blocked) == 2
    assert blocked[0].startswith("N=2 rho=150: warning: d < sigma violated")
    assert blocked[1].startswith("N=2 rho=150: FAILED: ")
    assert (out / "N2_rho100" / "summary.json").is_file()


def test_sweep_records_failed_points(tmp_path, capsys):
    out = tmp_path / "sweep"
    cfg = _coarse_sweep(tmp_path)
    code = cli.main(["sweep", "-c", cfg])
    assert code == cli.EXIT_CONFIG  # the failed point's config error, as `run` exits
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(rows) == 3
    assert "nan" in rows[2]


@pytest.mark.parametrize(
    "error, code",
    [
        (cli.SolverError("forced"), cli.EXIT_SOLVER),
        (OSError("forced"), cli.EXIT_IO),
        (RuntimeError("forced"), cli.EXIT_MISMATCH),
    ],
    ids=["solver", "io", "unexpected"],
)
def test_sweep_exits_with_first_failed_points_code(tmp_path, monkeypatch, capsys, error, code):
    # the N=2 point fails with `error`, then the N=8 point with a config
    # error; the sweep exits with the code of the first failure in sweep order
    real = cli.simulate

    def simulate(setup, threads=2):
        if setup.geom.num_spins == 2:
            raise error
        return real(setup, threads)

    monkeypatch.setattr(cli, "simulate", simulate)
    assert cli.main(["sweep", "-c", _coarse_sweep(tmp_path)]) == code
    assert capsys.readouterr().err.count("FAILED") == 2


def _sweep_cells(out):
    """sweep.csv's rows without the wall_seconds column."""
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    return [line.rsplit(",", 1)[0] for line in lines]


def test_sweep_starts_largest_points_first(tmp_path, monkeypatch):
    started = []

    def sweep_point(cfg, threads):
        n, rho = cfg["preset"]["num_spins"], cfg["preset"]["rho"]
        started.append((n, rho))
        # the one lane may step on two of this process's CPUs
        assert threads == min(2, cli._cpu_count())
        values = dict.fromkeys(("LRC_one_side", "two_LRC", "OS", "UC", "MT", "row_sum"), 0.25)
        return {"N": n, "rho": rho, **values, "arrival_time": None, "wall_seconds": 0.0}

    monkeypatch.setattr(cli, "_sweep_point", sweep_point)
    out = tmp_path / "sweep"
    cfg = _write(tmp_path / "sweep.json", {"epsilon": 0.1, "num_spins": [4, 2, 6],
                                           "rho": [100.0, 50.0], "parallelism": 1,
                                           "out_dir": str(out)})
    assert cli.main(["sweep", "-c", cfg]) == cli.EXIT_OK
    assert started == [(6, 50.0), (6, 100.0), (4, 50.0), (4, 100.0), (2, 50.0), (2, 100.0)]
    rows = [line.split(",")[:2] for line in _sweep_cells(out)[1:]]
    assert rows == [["2", "50"], ["2", "100"], ["4", "50"], ["4", "100"], ["6", "50"], ["6", "100"]]


def test_parallel_sweep_matches_serial(tmp_path, monkeypatch, capsys):
    # N=8 collides detectors on this coarse grid, so its two points fail with
    # a config error.  Each holds its worker for a moment, so that with more
    # than one worker the two failed rows come back from different workers.
    real = cli.resolve_run_config

    def resolve_run_config(cfg):
        if cfg["preset"]["num_spins"] == 8:
            time.sleep(0.5)
        return real(cfg)

    monkeypatch.setattr(cli, "resolve_run_config", resolve_run_config)
    results = []
    for parallelism in (1, 2, 3):
        out = tmp_path / f"p{parallelism}"
        cfg = _write(tmp_path / "sweep.json", {"epsilon": 0.1, "num_spins": [2, 8],
                                               "rho": [50.0, 100.0], "num_points": 40,
                                               "num_steps": 5, "t_final": 0.005,
                                               "parallelism": parallelism, "out_dir": str(out)})
        code = cli.main(["sweep", "-c", cfg])
        failures = [line for line in capsys.readouterr().err.splitlines() if "FAILED" in line]
        results.append((code, _sweep_cells(out), failures))
    assert results[0][0] == cli.EXIT_CONFIG
    assert len(results[0][2]) == 2
    assert [cells.split(",")[:2] for cells in results[0][1][1:]] == [
        ["2", "50"], ["2", "100"], ["8", "50"], ["8", "100"]
    ]
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_sweep_prints_each_points_warnings(tmp_path, capsys):
    # by t_final = 0.12 both packets near the domain's ends; each point runs
    # in a worker process, and its row carries its notes back
    def sweep(name, **keys):
        out = tmp_path / name
        cfg = _write(tmp_path / f"{name}.json", {"epsilon": 0.1, "rho": [100.0], "num_steps": 100,
                                                 "out_dir": str(out), **keys})
        assert cli.main(["sweep", "-c", cfg]) == cli.EXIT_OK
        return out, capsys.readouterr().err.splitlines()

    out, late = sweep("late", num_spins=[2, 4], t_final=0.12, parallelism=2)
    for n in (2, 4):
        notes = json.loads((out / f"N{n}_rho100" / "summary.json").read_text())["warnings"]
        assert any(note.startswith("boundary mass") for note in notes)
        prefix = f"N={n} rho=100: warning: "
        assert [line for line in late if line.startswith(prefix)] == [prefix + note for note in notes]
    _, control = sweep("default", num_spins=[2], parallelism=1)
    assert not any("boundary mass" in line for line in control)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_sweep_keeps_each_points_coarse_step_note(tmp_path, capsys, parallelism):
    # dt = 0.0065 is coarse for both points; each point's run notes it in
    # its own summary and row, also when both run in this process
    out = tmp_path / "sweep"
    cfg = _write(tmp_path / "sweep.json", {"epsilon": 0.1, "num_spins": [2], "rho": [100.0, 150.0],
                                           "num_steps": 10, "t_final": 0.065,
                                           "parallelism": parallelism, "out_dir": str(out)})
    assert cli.main(["sweep", "-c", cfg]) == cli.EXIT_OK
    err = capsys.readouterr().err.splitlines()
    for rho in (100, 150):
        notes = json.loads((out / f"N2_rho{rho}" / "summary.json").read_text())["warnings"]
        coarse = [note for note in notes if note.startswith("dt=0.0065 exceeds")]
        assert len(coarse) == 1
        assert err.count(f"N=2 rho={rho}: warning: {coarse[0]}") == 1


def _record_starts(monkeypatch, path, then):
    """Patch `cli.simulate` to append [N, rho, start time, pid] to `path`, then call `then`.

    Forked sweep workers inherit the patch; spawned ones would import the
    real `simulate` and record nothing.
    """

    def simulate(setup, threads=2):
        with open(path, "a", encoding="ascii") as fh:  # one short append per point
            fh.write(json.dumps([setup.geom.num_spins, setup.params.rho, time.monotonic(), os.getpid()]) + "\n")
        return then(setup, threads)

    monkeypatch.setattr(cli, "simulate", simulate)


def _starts(path):
    """The [N, rho, start time, pid] of each recorded point, in start order."""
    return sorted((json.loads(line) for line in path.read_text().splitlines()), key=lambda start: start[2])


def _small_sweep(tmp_path, spins, rhos, parallelism):
    return _write(tmp_path / "sweep.json", {"epsilon": 0.1, "num_spins": spins, "rho": rhos,
                                            "num_points": 120, "num_steps": 5, "t_final": 0.005,
                                            "parallelism": parallelism, "out_dir": str(tmp_path / "sweep")})


def test_parallel_sweep_starts_largest_points_first(tmp_path, monkeypatch):
    # the workers take the points in the order they were submitted, so no
    # N = 2 point starts while an N = 4 point waits; this process runs none
    starts = tmp_path / "starts.txt"
    _record_starts(monkeypatch, starts, cli.simulate)
    assert cli.main(["sweep", "-c", _small_sweep(tmp_path, [2, 4], [10.0, 20.0], 2)]) == cli.EXIT_OK
    started = _starts(starts)
    assert sorted((n, rho) for n, rho, _, _ in started) == [(2, 10.0), (2, 20.0), (4, 10.0), (4, 20.0)]
    assert [n for n, *_ in started] == [4, 4, 2, 2]
    assert os.getpid() not in {pid for *_, pid in started}


def test_worker_interrupt_stops_dispatch(tmp_path, monkeypatch):
    # a Ctrl-C in the first point's worker ends the sweep, and the points the
    # pool had not yet queued never start.  The other points hold their
    # workers meanwhile: up to parallelism + 1 points had started when this
    # process saw the interrupt, and up to parallelism + 1 more were queued.
    def interrupt(setup, threads):
        if (setup.geom.num_spins, setup.params.rho) != (4, 10.0):
            time.sleep(0.3)
        raise KeyboardInterrupt

    starts = tmp_path / "starts.txt"
    _record_starts(monkeypatch, starts, interrupt)
    parallelism = 2
    cfg = _small_sweep(tmp_path, [2, 4], [10.0, 20.0, 30.0, 40.0], parallelism)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["sweep", "-c", cfg])
    assert not (tmp_path / "sweep" / "sweep.csv").exists()
    assert len(_starts(starts)) <= 2 * (parallelism + 1) < 8


# Runs the sweep of config argv[1] with `simulate` patched to append each
# point's [N, rho, start time, pid] to argv[2] and sleep argv[3] seconds
# first; with argv[4] == "ignore" it starts with SIGINT ignored, as a
# background job of a non-interactive shell does.
_SIGINT_SCRIPT = """
import json, os, signal, sys, time
from spintrack import cli
config, starts, delay, mode = sys.argv[1:]
if mode == "ignore":
    signal.signal(signal.SIGINT, signal.SIG_IGN)
real = cli.simulate

def simulate(setup, threads=2):
    with open(starts, "a", encoding="ascii") as fh:
        fh.write(json.dumps([setup.geom.num_spins, setup.params.rho, time.monotonic(), os.getpid()]) + "\\n")
    time.sleep(float(delay))
    return real(setup, threads)

cli.simulate = simulate
sys.exit(cli.main(["sweep", "-c", config]))
"""


def _interrupted_sweep(tmp_path, delay, mode, parallelism=2):
    """Run a 6-point sweep in a session of its own and send SIGINT to its
    process group once `parallelism` points have started; returns the
    finished process, its stderr and the recorded starts."""
    starts = tmp_path / "starts.txt"
    cfg = _small_sweep(tmp_path, [2, 4], [10.0, 20.0, 30.0], parallelism)
    proc = subprocess.Popen(
        [sys.executable, "-c", _SIGINT_SCRIPT, cfg, str(starts), str(delay), mode],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not starts.exists() or len(starts.read_text().splitlines()) < parallelism:
            assert proc.poll() is None, proc.communicate()[1]
            assert time.monotonic() < deadline
            time.sleep(0.02)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc, err, _starts(starts)


def _group_is_gone(pgid, timeout=5.0):
    """Whether no process of group `pgid` is left within `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.02)
    return False


@pytest.mark.skipif(sys.platform != "linux", reason="the test's simulate patch reaches forked workers only")
def test_ctrl_c_stops_a_parallel_sweep_at_once(tmp_path):
    # a Ctrl-C reaches the whole process group: the workers end in their
    # first points, and the points queued for them never start
    proc, _, started = _interrupted_sweep(tmp_path, delay=10.0, mode="interrupt")
    assert proc.returncode != 0
    assert [n for n, *_ in started] == [4, 4]
    assert not (tmp_path / "sweep" / "sweep.csv").exists()
    assert _group_is_gone(proc.pid)


@pytest.mark.skipif(sys.platform != "linux", reason="the test's simulate patch reaches forked workers only")
def test_sweep_started_with_sigint_ignored_finishes(tmp_path):
    # control: workers that inherit SIGINT ignored keep ignoring it
    proc, err, started = _interrupted_sweep(tmp_path, delay=0.3, mode="ignore")
    assert proc.returncode == cli.EXIT_OK, err
    assert len(started) == 6
    assert len((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()) == 7
    assert _group_is_gone(proc.pid)


def test_parallel_sweep_leaves_the_process_as_it_found_it(tmp_path, monkeypatch):
    # both workers are forked while this thread is the process's only one,
    # before the pool starts its manager thread; the pool's thread and
    # workers end with the sweep, and a forked pool starts no
    # multiprocessing resource tracker, which a spawned one does
    threads_at_fork = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: threads_at_fork.append(threading.active_count()) or fork())
    tracker = resource_tracker._resource_tracker
    launches = []
    ensure_running = tracker.ensure_running
    monkeypatch.setattr(tracker, "ensure_running", lambda: launches.append(None) or ensure_running())
    threads = threading.active_count()
    assert cli.main(["sweep", "-c", _small_sweep(tmp_path, [2], [10.0, 20.0], 2)]) == cli.EXIT_OK
    assert threads_at_fork == [1, 1]
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []
    assert launches == []


def _oracle_cases():
    return [
        f"oracle N={n} rho={rho:g} beta={beta:g} kappa={kappa}"
        for n in (2, 3)
        for rho in (0.0, 10.0, 100.0)
        for beta in (0.0, 1e-4)
        for kappa in (1, 2)
    ]


def _control_cases():
    # kappa scales the coupling kappa*rho, so only rho > 0 has a control
    return [
        f"control N={n} rho={rho:g} beta={beta:g} kappa=2 vs dense kappa=1"
        for n in (2, 3)
        for rho in (10.0, 100.0)
        for beta in (0.0, 1e-4)
    ]


def test_validate_passes(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ ok ]") == 32
    assert "validate: 24/24 checks passed, 8/8 controls caught" in out
    for case in _oracle_cases() + _control_cases():
        assert out.count(f"[ ok ] {case}:") == 1
    assert "FAIL" not in out


def test_validate_reports_failed_checks_and_uncaught_controls(monkeypatch, capsys):
    # a check fails when its pair differs; a control, when its pair agrees
    def checks():
        yield "check a", 1e-3, 1e-5, True
        yield "check b", 1e-14, 1e-15, True
        yield "check c", 2e-2, 1e-14, True
        yield "control d", 1e-14, 1e-15, False
        yield "control e", 1e-1, 1e-3, False

    monkeypatch.setattr(cli, "_validate_checks", checks)
    assert cli.main(["validate"]) == cli.EXIT_MISMATCH
    captured = capsys.readouterr()
    for name in ("check a", "check c", "control d"):
        assert captured.out.count(f"[FAIL] {name}:") == 1
    for name in ("check b", "control e"):
        assert captured.out.count(f"[ ok ] {name}:") == 1
    assert "validate: 1/3 checks passed, 1/2 controls caught" in captured.out
    # the largest state difference among the failed checks, not the first failure
    assert captured.err == "worst offender: check c (state diff 2.00e-02, prob diff 1.00e-14)\n"


def test_readme_cli_block_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    listed = {}
    for line in block.strip().splitlines():  # a line not starting "spintrack" continues the last
        if line.startswith("spintrack "):
            current = listed.setdefault(line.split()[1], set())
        current.update(re.findall(r"(?<![\w-])--?[a-z][\w-]*", line))
    commands = next(
        action.choices
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for command in ("run", "sweep", "validate", "info"):
        options = set(commands[command]._option_string_actions) - {"-h", "--help", "--config"}
        assert listed[command] == options, command


def test_readme_outputs_list_the_summary_results(tmp_path):
    # README's "Outputs" names every results key of summary.json in its list
    # items, and no other, so a key added, renamed or deleted shows there
    out = tmp_path / "out"
    assert cli.main(["run", "-c", _write(tmp_path / "cfg.json", small_explicit_config(out))]) == 0
    results = json.loads((out / "summary.json").read_text())["results"]
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    outputs = readme.split("\n### Outputs\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`(\w+)`", " ".join(re.findall(r"^  - (.*?):", outputs, re.M)))
    assert sorted(listed) == sorted(results)
