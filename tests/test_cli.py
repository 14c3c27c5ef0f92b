import importlib
import json
import logging
import math
import os
import pkgutil
import subprocess
import sys

import pytest

import solitonlab
import solitonlab.cli as cli
from solitonlab.cli import main
from solitonlab.evolve import BlowupError
from solitonlab.groundstate import GroundStateError
from solitonlab.harness import ScenarioError
from solitonlab.mech import MechError
from solitonlab.modulation import ExtractionError, NewtonDivergenceError
from solitonlab.spectral import SpectralError

BASE_INI = """
[model]
kind = power
sigma = 1.0
c = 2.0

[potential]
amplitudes = -1.0
centers = 0.0
widths = 2.0

[grid]
dim = 1
n = 256
box_length = {L}

[run]
reference_energy = 1.0
epsilon = 0.01
dt = 0.001
t_final = {t_final}
extraction_cadence = 100
q_init = 3.0 0 0 0
perturb_amplitude = 0.5
seed = 4

[output]
dir = {out}
"""


@pytest.fixture()
def cfg_file(tmp_path):
    def make(**kw):
        params = {"L": 40 * math.pi, "t_final": 0.5, "out": tmp_path / "out"}
        params.update(kw)
        path = tmp_path / "run.ini"
        path.write_text(BASE_INI.format(**params))
        return path
    return make


def test_cli_groundstate(cfg_file, tmp_path):
    code = main(["--config", str(cfg_file()), "groundstate"])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "groundstate.json").read_text())
    assert summary["mass"] == pytest.approx(1.0, rel=1e-8)
    assert summary["h2_ok"] is True
    assert (tmp_path / "out" / "profile.csv").exists()


def test_cli_masscurve(cfg_file, tmp_path):
    code = main(["--config", str(cfg_file()), "masscurve",
                 "--e-lo", "0.5", "--e-hi", "2.0", "--samples", "5"])
    assert code == 0
    data = json.loads((tmp_path / "out" / "masscurve.json").read_text())
    assert data["h2_ok"] is True


def test_cli_spectrum(cfg_file, tmp_path, monkeypatch):
    # the operators are diagonalised once; the CSV lists the verdict's eigenvalues
    import solitonlab.spectral as spectral
    calls = []

    def counted(real):
        def wrapper(*a, **kw):
            calls.append(1)
            return real(*a, **kw)
        return wrapper

    for mod in (spectral, cli):                 # wherever a caller looks it up
        if hasattr(mod, "eigen_report"):
            monkeypatch.setattr(mod, "eigen_report", counted(mod.eigen_report))
    code = main(["--config", str(cfg_file()), "spectrum", "--n", "1024"])
    assert code == 0
    assert len(calls) == 1
    data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert data["h2_ok"] and data["h3_ok"] and data["h5_ok"]
    from solitonlab.harness import read_csv
    rows = read_csv(tmp_path / "out" / "eigenvalues.csv")
    expect = data["spectral"]["eigenvalues"]
    for key, op in (("plus_0", 0.0), ("minus_0", 1.0)):
        mine = (rows["operator"] == op) & (rows["sector"] == 0)
        assert rows["index"][mine].tolist() == list(range(len(expect[key])))
        assert rows["eigenvalue"][mine].tolist() == expect[key]
    assert len(rows["eigenvalue"]) == sum(len(v) for v in expect.values())


def test_cli_simulate(cfg_file, tmp_path):
    code = main(["--config", str(cfg_file()), "simulate"])
    assert code == 0
    assert (tmp_path / "out" / "simulate_series.csv").exists()
    assert (tmp_path / "out" / "simulate_summary.json").exists()
    assert (tmp_path / "out" / "diagnostics.csv").exists()


def test_cli_simulate_reports_progress(cfg_file, capsys):
    # 500 steps at cadence 100: six samples, one progress line each
    assert main(["--config", str(cfg_file()), "simulate"]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "samples" in ln]
    assert len(lines) == 6
    assert "t = 0.5: 6 of 6 samples" in lines[-1]
    assert not logging.getLogger("solitonlab").handlers


def test_cli_simulate_snapshots(cfg_file, tmp_path):
    ini = cfg_file(t_final=0.2)
    text = ini.read_text().replace("dir =", "snapshot_cadence = 1\ndir =")
    ini.write_text(text)
    code = main(["--config", str(ini), "simulate"])
    assert code == 0
    snaps = sorted((tmp_path / "out").glob("snap_*.bin"))
    assert len(snaps) >= 2
    from solitonlab.field import load_field
    f = load_field(snaps[0])
    assert f.grid.n == (256,)
    assert (tmp_path / "out" / "final_abs2.csv").exists()


def test_cli_partial_run_exit_code(cfg_file, tmp_path, monkeypatch):
    # extraction lost after t = 0: exit 3, the partial rows and the error kept
    import solitonlab.harness as hn
    from solitonlab.modulation import ExtractionError
    real, calls = hn.extract, []

    def failing(*a, **kw):
        calls.append(1)
        if len(calls) > 1:       # dec0 (also sample 0), then t = 0.1
            raise ExtractionError("synthetic failure")
        return real(*a, **kw)

    monkeypatch.setattr(hn, "extract", failing)
    assert main(["--config", str(cfg_file()), "simulate"]) == 3
    summary = json.loads((tmp_path / "out" / "simulate_summary.json").read_text())
    assert summary["partial"] and summary["error"] == "synthetic failure"
    rows = (tmp_path / "out" / "simulate_series.csv").read_text().splitlines()
    assert len(rows) == 2                      # header and the t = 0 sample


def test_cli_mech(cfg_file, tmp_path):
    code = main(["--config", str(cfg_file(t_final=50.0)), "mech"])
    assert code == 0
    assert (tmp_path / "out" / "orbit.csv").exists()
    assert (tmp_path / "out" / "veff.csv").exists()


def test_cli_mech_at_reference_mass(cfg_file, tmp_path):
    # V^eff is built from the soliton the orbit runs with: the mass-2 cubic
    # soliton has E = 4, where the E = 1 profile gave V^eff(0) = -1.8285
    ini = cfg_file(t_final=5.0)
    ini.write_text(ini.read_text().replace("reference_energy = 1.0", "reference_mass = 2.0"))
    assert main(["--config", str(ini), "mech"]) == 0
    from solitonlab.harness import read_csv
    veff = read_csv(tmp_path / "out" / "veff.csv")
    assert veff["q"][128] == 0.0
    assert veff["Veff"][128] == pytest.approx(-3.9023, abs=1e-4)


def test_cli_mech_at_p4_mass(cfg_file, tmp_path):
    # p4 = 1 gives the run's soliton mass m_ref + p4/2 = 1.5, the mass a
    # scenario run uses; mass 1 gave V^eff(0) = -1.8285
    ini = cfg_file(t_final=5.0)
    ini.write_text(ini.read_text().replace("q_init = 3.0 0 0 0",
                                           "q_init = 3.0 0 0 0\np_init = 0 0 0 1.0"))
    assert main(["--config", str(ini), "mech"]) == 0
    from solitonlab.harness import read_csv
    veff = read_csv(tmp_path / "out" / "veff.csv")
    assert veff["q"][128] == 0.0
    assert veff["Veff"][128] == pytest.approx(-2.8745, abs=1e-4)


def test_cli_mech_3d(cfg_file, tmp_path):
    # 3D: the mechanics run on the symmetry axis, and V^eff is written there
    ini = cfg_file(L=60.0, t_final=5.0)
    text = (ini.read_text().replace("sigma = 1.0", "sigma = 0.5").replace("c = 2.0", "c = 1.0")
            .replace("centers = 0.0", "centers = 0.0 0.0 0.0")
            .replace("dim = 1", "dim = 3").replace("n = 256", "n = 16"))
    ini.write_text(text)
    assert main(["--config", str(ini), "mech"]) == 0
    from solitonlab.harness import read_csv
    veff = read_csv(tmp_path / "out" / "veff.csv")
    assert len(veff["q"]) == 16 and veff["q"][8] == 0.0
    assert veff["Veff"][8] == min(veff["Veff"])             # the well's centre
    # V^eff falls towards the well from both sides
    assert all((dv > 0) == (q > 0)
               for q, dv in zip(veff["q"], veff["dVeff"]) if abs(dv) > 1e-12)
    orbit = read_csv(tmp_path / "out" / "orbit.csv")
    assert orbit["q"][0] == 3.0 and len(orbit["t"]) > 1


def test_cli_compare(cfg_file, tmp_path):
    code = main(["--config", str(cfg_file()), "compare"])
    assert code == 0
    data = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert "max_d_eps" in data and "critical_margin" in data
    assert (tmp_path / "out" / "compare.csv").exists()


def test_cli_sweep(cfg_file, tmp_path):
    code = main(["--config", str(cfg_file()), "sweep",
                 "--eps", "0.01,0.004,0.001", "--t0", "0.1"])
    assert code == 0
    data = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
    assert "slopes" in data and len(data["entries"]) == 3


@pytest.mark.parametrize("eps", ["0.01,0.004", "0.01,x,0.001"])
def test_cli_bad_sweep_eps_exit_code(cfg_file, capsys, eps):
    assert main(["--config", str(cfg_file()), "sweep", "--eps", eps]) == 1
    assert "config error: --eps" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_cli_bad_threads_exit_code(cfg_file, capsys, threads):
    # fewer than one process cannot run a sweep: refused, not run serially
    argv = ["--config", str(cfg_file()), "--threads", threads,
            "sweep", "--eps", "0.01,0.004,0.001", "--t0", "0.1"]
    assert main(argv) == 1
    assert "config error: --threads" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[grid]\nn = 100\n")
    assert main(["--config", str(bad), "groundstate"]) == 1


@pytest.mark.parametrize("old,new", [
    ("kind = power", "kind = cubic"),
    ("widths = 2.0", "widths = 0"),
    ("seed = 4", "seed = x"),
])
def test_cli_bad_value_exit_code(cfg_file, capsys, old, new):
    ini = cfg_file()
    ini.write_text(ini.read_text().replace(old, new))
    assert main(["--config", str(ini), "groundstate"]) == 1
    assert "config error:" in capsys.readouterr().err


def test_cli_missing_config(tmp_path):
    assert main(["--config", str(tmp_path / "none.ini"), "groundstate"]) == 1


def test_cli_numerical_failure_exit_code(tmp_path):
    # saturable kind with energy >= c has no decaying ground state
    ini = tmp_path / "sat.ini"
    ini.write_text("""
[model]
kind = saturable
c = 0.5

[run]
reference_energy = 1.0

[output]
dir = {}
""".format(tmp_path / "out"))
    assert main(["--config", str(ini), "groundstate"]) == 2


def _raise(exc):
    def fail(*a, **kw):
        raise exc("synthetic failure")
    return fail


@pytest.mark.parametrize("exc", [GroundStateError, ExtractionError, NewtonDivergenceError,
                                 BlowupError, MechError, SpectralError, ScenarioError],
                         ids=lambda c: c.__name__)
def test_cli_numerical_family_exit_code(cfg_file, capsys, monkeypatch, exc):
    monkeypatch.setattr(cli, "solve_ground_state", _raise(exc))
    assert main(["--config", str(cfg_file()), "groundstate"]) == 2
    assert "numerical failure: synthetic failure" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [TypeError, ValueError, RuntimeError, KeyError],
                         ids=lambda c: c.__name__)
def test_cli_programming_error_propagates(cfg_file, monkeypatch, exc):
    # a bug is not a numerical failure: it must surface, not exit 2
    monkeypatch.setattr(cli, "solve_ground_state", _raise(exc))
    with pytest.raises(exc, match="synthetic failure"):
        main(["--config", str(cfg_file()), "groundstate"])


def _subprocess_env():
    """The environment with this solitonlab first on PYTHONPATH: a child
    interpreter does not see pytest's `pythonpath` setting."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(solitonlab.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_cli_entry_point_runs(cfg_file):
    proc = subprocess.run(
        [sys.executable, "-m", "solitonlab.cli", "--config", str(cfg_file()),
         "groundstate"], capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 0


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(solitonlab.__path__)))
def test_module_exports_resolve(name):
    # a stale `__all__` entry breaks `from solitonlab.<module> import *`
    mod = importlib.import_module(f"solitonlab.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_import_loads_no_interpolate_stack():
    # scipy.interpolate brings scipy.sparse, scipy.spatial and scipy.optimize,
    # some 18 MB of resident memory in every process
    code = ("import sys, solitonlab, solitonlab.cli; "
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.sparse', "
            "'scipy.spatial', 'scipy.optimize') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
