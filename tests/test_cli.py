"""End-to-end tests of the command-line interface.

main() is called in-process with argv lists; every run is confined to
a pytest tmp_path.  Covers config parsing (INI, JSON, flag overrides,
collected validation errors), the per-subcommand artifacts, exit codes
(0 success, 1 numerical, 2 config), manifest-driven reruns and the
sweep resume protocol.
"""

import dataclasses
import inspect
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gapchain
from gapchain import analysis
from gapchain.chainmap import chain_length_for
from gapchain.cli import (_DISPATCH, _SCHEMA, ConfigError, _flag_overrides,
                          _parse_args, _reads, main, parse_config)
from gapchain.model import ModelParams
from gapchain.mps import EvolutionConfig
from gapchain.polaron import PolaronSolution

WIDEBAND = dict(alpha=1.0, omega_b=5.0, omega0=100.0, omega_c=800.0)

# one non-default value per config key, as it would be typed
SAMPLE_VALUES = {
    ("model", "alpha"): "0.5", ("model", "omega_b"): "4.0",
    ("model", "omega0"): "90.0", ("model", "omega_c"): "700.0",
    ("model", "delta"): "2.5",
    ("chain", "n_sites"): "40",
    ("evolution", "t_max"): "0.7", ("evolution", "dt"): "0.001",
    ("evolution", "d_b"): "5", ("evolution", "chi_max"): "24",
    ("evolution", "svd_threshold"): "1e-9",
    ("evolution", "sample_stride"): "3", ("evolution", "mode"): "full",
    ("analysis", "fit_window_low"): "0.2",
    ("analysis", "fit_window_high"): "0.8",
    ("analysis", "exclude"): "0.1:0.2,0.5:0.6",
    ("output", "directory"): "elsewhere", ("output", "formats"): "csv,svg",
    ("rwa", "solver"): "laplace", ("rwa", "samples"): "21",
    ("rwa", "no_self_check"): "true",
    ("evolve", "atom_state"): "plus_superposition",
    ("sweep", "deltas"): "20,30", ("sweep", "methods"): "rwa,full",
    ("sweep", "samples"): "801",
    ("sweep", "jobs"): "2", ("sweep", "resume"): "true",
    ("analyze", "input"): "other.csv", ("analyze", "x"): "time",
    ("analyze", "signal"): "amplitude", ("analyze", "estimators"): "decay",
    ("plot", "csv"): "b.csv", ("plot", "x"): "time", ("plot", "y"): "pop,re_A",
    ("plot", "labels"): "first,second", ("plot", "markers"): "open,filled",
    ("plot", "log_y"): "true", ("plot", "alpha2_time"): "true",
    ("plot", "title"): "overlay", ("plot", "out"): "fig.svg",
}
SCHEMA_KEYS = [(sec, key) for sec, keys in _SCHEMA.items() for key in keys]
# the subcommand whose run reads each shared section; a section named after
# a subcommand is read by that subcommand
READER = {"model": "rwa", "chain": "rwa", "evolution": "evolve",
          "analysis": "analyze", "output": "rwa"}
# the smallest config each reader accepts
BASE_CONFIG = {
    "rwa": {"model": WIDEBAND, "evolution": {"t_max": 1.0}},
    "evolve": {"model": WIDEBAND, "evolution": {"t_max": 1.0}},
    "sweep": {"model": WIDEBAND, "evolution": {"t_max": 1.0, "mode": "FULL"},
              "sweep": {"deltas": "20"}},
    "analyze": {"analyze": {"input": "series.csv"}},
    "plot": {"plot": {"csv": "a.csv", "y": "pop"}},
}


def flag_for(sec, key):
    if (sec, key) == ("output", "directory"):
        return "--out-dir"
    return "--" + key.replace("_", "-")


def ini_text(config):
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n"
                                          for k, v in block.items())
                   for sec, block in config.items())


def model_flags(delta=None, **over):
    d = dict(WIDEBAND)
    d.update(over)
    flags = []
    for key, flag in (("alpha", "--alpha"), ("omega_b", "--omega-b"),
                      ("omega0", "--omega0"), ("omega_c", "--omega-c")):
        flags += [flag, repr(float(d[key]))]
    if delta is not None:
        flags += ["--delta", repr(float(delta))]
    return flags


def read_csv(path):
    meta, header, rows = [], None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        elif line.strip():
            rows.append([float(c) for c in line.split(",")])
    table = np.asarray(rows)
    return meta, {name: table[:, j] for j, name in enumerate(header)}


def manifest(outdir):
    return json.loads((Path(outdir) / "manifest.json").read_text())


def point_manifest(path):
    meta, _ = read_csv(path)
    return json.loads(next(m for m in meta if m.startswith("# manifest:"))
                      .partition(":")[2])


_scan_point = analysis._scan_point


def sigkill_at_25(delta, *rest):
    """Sweep point whose worker process kills itself at delta = 25."""
    if delta == 25.0:
        os.kill(os.getpid(), signal.SIGKILL)
    return _scan_point(delta, *rest)


def write_series_csv(path, times, values, name="pop"):
    lines = ["# synthetic series", f"t,{name}"]
    lines += [f"{float(t)!r},{float(v)!r}" for t, v in zip(times, values)]
    Path(path).write_text("\n".join(lines) + "\n")


class TestParseConfig:
    def test_missing_alpha_names_the_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(data={"model": {"omega_b": 5, "omega0": 100,
                                         "omega_c": 800}}, subcommand="rwa")
        assert any(e.startswith("model.alpha") for e in err.value.errors)

    def test_all_violations_reported_together(self):
        data = {"model": {"omega_b": 5, "omega0": 100, "omega_c": 800},
                "evolution": {"t_max": 1.0, "mode": "BOGUS"},
                "analysis": {"fit_window_low": 0.9, "fit_window_high": 0.1},
                "analyze": {"input": "series.csv"},
                "bogus_section": {"x": 1}}
        # each violation under a subcommand that reads its key
        for sub, violation in (
                ("evolve", "evolution.mode: must be RWA or FULL"),
                ("analyze", "analysis: need 0 <= fit_window_low < "
                            "fit_window_high <= 1")):
            with pytest.raises(ConfigError) as err:
                parse_config(data=data, subcommand=sub)
            assert err.value.errors == sorted([
                "bogus_section: unknown section", violation,
                "model.alpha: required"])

    def test_rejected_required_key_is_reported_once(self, tmp_path, capsys):
        # a value its validator refused is not reported as unset as well
        code = main(["rwa", "--alpha", "nan", "--omega-b", "5",
                     "--omega0", "100", "--omega-c", "800", "--t-max", "1",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert [s.strip() for s in lines if "model.alpha" in s] == [
            "model.alpha: expected a finite number, got 'nan'"]
        with pytest.raises(ConfigError) as err:
            parse_config(data={"model": {"omega_b": 5, "omega0": 100,
                                         "omega_c": 800},
                               "sweep": {"deltas": "1,nan"}},
                         subcommand="sweep")
        assert sorted(err.value.errors) == [
            "model.alpha: required",
            "sweep.deltas: expected a finite number, got 'nan'"]

    def test_unknown_key_is_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config(data={"model": {"alpha": 1, "omega_b": 5,
                                         "omega0": 100, "omega_c": 800,
                                         "alhpa": 2}}, subcommand="rwa")
        assert any("model.alhpa: unknown key" in e for e in err.value.errors)

    def test_unknown_section_of_a_json_file_is_reported(self, tmp_path):
        # as in an INI file: a misspelt section is not skipped unread
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": dict(WIDEBAND, delta=2.0),
                                    "modle": {"delta": 3.0}}))
        with pytest.raises(ConfigError) as err:
            parse_config(path=path, subcommand="polaron")
        assert err.value.errors == ["modle: unknown section"]

    def test_json_section_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": dict(WIDEBAND, delta=3.0),
                                    "output": "elsewhere"}))
        out = tmp_path / "out"
        assert main(["polaron", "--config", str(path), "--out-dir", str(out)]) == 2
        assert "output: must be a JSON object of keys, got 'elsewhere'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_value_names_the_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(data={"model": {"alpha": "abc", "omega_b": 5,
                                         "omega0": 100, "omega_c": 800}},
                         subcommand="polaron")
        assert any(e.startswith("model.alpha") for e in err.value.errors)

    def test_polaron_needs_positive_delta(self):
        data = {"model": dict(WIDEBAND, delta=0.0)}
        with pytest.raises(ConfigError) as err:
            parse_config(data=data, subcommand="polaron")
        assert any(e.startswith("model.delta") for e in err.value.errors)

    def test_flags_override_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nalpha = 1.0\nomega_b = 5.0\n"
                       "omega0 = 100.0\nomega_c = 800.0\ndelta = 2.0\n")
        cfg = parse_config(path=ini, overrides={("model", "delta"): 15.0},
                           subcommand="polaron")
        assert cfg.model.delta == 15.0

    def test_ini_round_trips_through_to_dict(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[model]\nalpha = 1.0\nomega_b = 5.0\nomega0 = 100.0\n"
            "omega_c = 800.0\ndelta = 2.0\n"
            "[chain]\nn_sites = 40\n"
            "[evolution]\nt_max = 1.5\ndt = 0.0005\nd_b = 4\nchi_max = 16\n"
            "svd_threshold = 1e-8\nsample_stride = 5\nmode = RWA\n"
            "[analysis]\nfit_window_low = 0.1\nfit_window_high = 0.9\n"
            "exclude = 0.2:0.3,1.0:1.1\n"
            "[output]\ndirectory = out\nformats = csv,json\n"
            "[analyze]\ninput = series.csv\n")
        for sub in ("evolve", "analyze"):  # between them, every section
            cfg = parse_config(path=ini, subcommand=sub)
            assert parse_config(data=cfg.to_dict(), subcommand=sub) == cfg
        assert cfg.analysis.exclude == ((0.2, 0.3), (1.0, 1.1))

    def test_json_config_accepted(self, tmp_path):
        cfg = parse_config(data={"model": dict(WIDEBAND, delta=2.0)},
                           subcommand="polaron")
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert parse_config(path=path, subcommand="polaron") == cfg

    def test_infinite_exclude_window_is_legal(self):
        cfg = parse_config(data={"analysis": {"exclude": "1:inf"},
                                 "analyze": {"input": "series.csv"}},
                           subcommand="analyze")
        assert cfg.analysis.exclude == ((1.0, math.inf),)

    def test_bad_exclude_window(self):
        with pytest.raises(ConfigError) as err:
            parse_config(data={"analysis": {"exclude": "3:1"}},
                         subcommand="analyze")
        assert any("exclude" in e for e in err.value.errors)

    def test_bad_format_listed(self):
        with pytest.raises(ConfigError) as err:
            parse_config(data={"output": {"formats": "csv,bogus"}},
                         subcommand="chain-coeffs")
        assert any("output.formats" in e and "bogus" in e
                   for e in err.value.errors)

    def test_chain_coeffs_requires_n_sites(self):
        with pytest.raises(ConfigError) as err:
            parse_config(data={"model": dict(WIDEBAND)},
                         subcommand="chain-coeffs")
        assert any(e.startswith("chain.n_sites") for e in err.value.errors)

    def test_rwa_requires_t_max(self):
        with pytest.raises(ConfigError) as err:
            parse_config(data={"model": dict(WIDEBAND)}, subcommand="rwa")
        assert any(e.startswith("evolution.t_max") for e in err.value.errors)

    def test_series_lists_keep_repeats(self):
        # each item of plot.csv, plot.y and plot.markers belongs to one series
        cfg = parse_config("plot", data={"plot": {
            "csv": "a.csv,a.csv", "y": "pop,pop", "markers": "open,open"}})
        assert cfg.plot.csv == ("a.csv", "a.csv")
        assert cfg.plot.y == ("pop", "pop")
        assert cfg.plot.markers == ("open", "open")


class TestFlagFileParity:
    """Every config key works as a flag, equal to the same INI/JSON value."""

    @pytest.mark.parametrize("sec,key", SCHEMA_KEYS,
                             ids=[f"{s}.{k}" for s, k in SCHEMA_KEYS])
    def test_flag_equals_ini_value(self, tmp_path, sec, key):
        sub = READER.get(sec, sec)
        value = SAMPLE_VALUES[(sec, key)]
        base = {name: dict(block) for name, block in BASE_CONFIG[sub].items()}
        base_ini = tmp_path / "base.ini"
        base_ini.write_text(ini_text(base))
        base.setdefault(sec, {})[key] = value
        full_ini, full_json = tmp_path / "full.ini", tmp_path / "full.json"
        full_ini.write_text(ini_text(base))
        full_json.write_text(json.dumps(base))

        flag = [flag_for(sec, key)]
        if value != "true":  # a switch is a bare flag
            flag.append(value)
        args = _parse_args([sub, "--config", str(base_ini), *flag])
        via_flag = parse_config(path=args.config,
                                overrides=_flag_overrides(args),
                                subcommand=sub)
        assert via_flag == parse_config(path=full_ini, subcommand=sub)
        assert via_flag == parse_config(path=full_json, subcommand=sub)
        assert via_flag != parse_config(path=base_ini, subcommand=sub)

    @pytest.mark.parametrize("sub", sorted(_DISPATCH))
    def test_help_lists_every_config_flag(self, sub, capsys):
        # exactly the keys the subcommand reads, compared by section.key
        # since --samples and --x belong to two sections
        with pytest.raises(SystemExit) as stop:
            main([sub, "--help"])
        assert stop.value.code == 0
        text = capsys.readouterr().out
        reads = _reads(sub)
        for sec, key in SCHEMA_KEYS:
            read = key in reads.get(sec, ())
            assert (f"{sec}.{key}:" in text) == read, (sub, sec, key)
            if read:
                assert re.search(re.escape(flag_for(sec, key)) + r"\b",
                                 text), (sub, sec, key)

    def test_flag_counts(self):
        # the config flags of each subcommand, 92 in all
        counts = {sub: sum(map(len, _reads(sub).values()))
                  for sub in _DISPATCH}
        assert counts == {"chain-coeffs": 8, "rwa": 13, "evolve": 16,
                          "polaron": 7, "sweep": 18, "analyze": 14,
                          "plot": 16}

    def test_one_file_serves_every_subcommand(self, tmp_path):
        # polaron reads no evolution key, so chi_max = 4 is not its error
        ini = tmp_path / "shared.ini"
        ini.write_text(ini_text({"model": WIDEBAND,
                                 "evolution": {"t_max": 1.0, "chi_max": 4},
                                 "analysis": {"fit_window_low": 2}}))
        out = tmp_path / "out"
        assert main(["polaron", "--config", str(ini), "--delta", "3",
                     "--out-dir", str(out)]) == 0
        assert sorted(manifest(out)["config"]) == ["model", "output"]
        with pytest.raises(ConfigError) as err:
            parse_config(path=ini, subcommand="evolve")
        assert err.value.errors == ["evolution: chi_max >= 8 required"]

    def test_other_subcommand_sections_are_ignored(self, tmp_path):
        ini = tmp_path / "shared.ini"
        ini.write_text(ini_text({"model": dict(WIDEBAND, delta=2.0),
                                 "evolution": {"t_max": 1.0},
                                 "rwa": {"solver": "laplace"},
                                 "sweep": {"deltas": "20,30", "bogus": "1"}}))
        assert parse_config(path=ini, subcommand="rwa").rwa.solver == \
            "laplace"
        cfg = parse_config(path=ini, subcommand="polaron")
        assert cfg.rwa is None and cfg.sweep is None
        assert "rwa" not in cfg.to_dict()


class TestExitCodes:
    def test_bad_flag_value_names_the_key(self, tmp_path, capsys):
        code = main(["polaron", *model_flags(delta=30), "--alpha", "abc",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "model.alpha: expected a finite number" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("delivery", ["ini", "flag"])
    @pytest.mark.parametrize("sec,key,value", [
        ("chain", "n_sites", "inf"), ("chain", "n_sites", "nan"),
        ("evolution", "t_max", "inf"), ("evolution", "t_max", "nan"),
        ("model", "alpha", "-inf")])
    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys,
                                                sec, key, value, delivery):
        config = {"model": dict(WIDEBAND, delta=2.0),
                  "evolution": {"t_max": 0.5}}
        config.setdefault(sec, {})[key] = value
        out = tmp_path / "out"
        argv = ["rwa", "--solver", "chain", "--out-dir", str(out)]
        if delivery == "ini":
            ini = tmp_path / "run.ini"
            ini.write_text(ini_text(config))
            argv += ["--config", str(ini)]
        else:
            argv += [f"{flag_for(s, k)}={v}"  # '=' keeps -inf a value
                     for s, block in config.items() for k, v in block.items()]
        code = main(argv)
        assert code == 2
        assert f"{sec}.{key}: expected" in capsys.readouterr().err
        assert not (out / "diagnostics.json").exists()

    @pytest.mark.parametrize("argv,key", [
        (["rwa", "--solver", "laplace", "--samples", "0"], "rwa.samples"),
        (["rwa", "--solver", "chain", "--samples", "1"], "rwa.samples"),
        (["sweep", "--deltas", "20", "--samples", "0"], "sweep.samples"),
        (["sweep", "--deltas", "20", "--jobs", "0"], "sweep.jobs"),
        (["sweep", "--deltas", "20", "--jobs", "-1"], "sweep.jobs"),
    ])
    def test_count_below_floor_exits_2(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        code = main([*argv, *model_flags(), "--t-max", "0.5",
                     "--out-dir", str(out)])
        assert code == 2
        assert f"{key}: must be at least" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--deltas", "nan"], "sweep.deltas: expected a finite number"),
        (["--deltas", "20,abc"], "sweep.deltas: expected a finite number"),
        (["--deltas=-1"], "sweep.deltas: detunings must be non-negative"),
        (["--deltas", "20,30,20"], "and distinct"),
        (["--deltas", "20", "--n-sites", "3"],
         "unrecognized arguments: --n-sites 3"),
        (["--deltas", "20", "--n-quad", "500"],
         "unrecognized arguments: --n-quad 500"),
        (["--deltas", "20", "--config", "{chain_ini}"],
         "chain.n_sites: not used by sweep"),
        # a full point always gives both estimates, from one run
        (["--deltas", "20", "--config", "{observables_ini}"],
         "sweep.full_observables: unknown key"),
        (["--deltas", "20", "--methods", ""],
         "sweep.methods: empty list (choose from rwa, full)"),
    ])
    def test_bad_sweep_input_exits_2_before_any_point(self, tmp_path, capsys,
                                                      argv, message):
        ini = {"chain_ini": tmp_path / "chain.ini",
               "observables_ini": tmp_path / "observables.ini"}
        ini["chain_ini"].write_text("[chain]\nn_sites = 300\n")
        ini["observables_ini"].write_text("[sweep]\nfull_observables = population\n")
        out = tmp_path / "out"
        argv = ["sweep", *[a.format(**ini) for a in argv],
                *model_flags(), "--t-max", "1.5", "--jobs", "1",
                "--out-dir", str(out)]
        if message.startswith("unrecognized"):  # argparse refuses the flag
            with pytest.raises(SystemExit) as stop:
                main(argv)
            assert stop.value.code == 2
        else:
            assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()  # no point, no diagnostics

    @pytest.mark.parametrize("argv", [
        ["sweep", *model_flags(), "--t-max", "1.5", "--deltas", "20",
         "--delta", "7"],
        ["rwa", *model_flags(delta=2), "--t-max", "0.5", "--sampl", "5"],
        ["rwa", "--solver", "laplace", *model_flags(delta=2),
         "--t-max", "0.5", "--chi-max", "4"],
        ["chain-coeffs", *model_flags(), "--n-sites", "60", "--chi-max", "16",
         "--fit-window-low", "0.3", "--t-max", "9"],
        ["sweep", *model_flags(), "--t-max", "1.5", "--deltas", "20",
         "--full-observables", "population"],
    ], ids=["sweep-delta", "rwa-abbreviation", "rwa-chi-max",
            "chain-coeffs-unread", "sweep-full-observables"])
    def test_unread_or_abbreviated_flag_exits_2(self, tmp_path, capsys, argv):
        # a flag is a key the subcommand reads, spelled in full; sweep's
        # --delta is not read as --deltas
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            main(argv + ["--out-dir", str(out)])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: " in err and " ".join(argv[-2:]) in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,key", [
        (["rwa", *model_flags(delta=2), "--t-max", "0.5", "--formats", ""],
         "output.formats"),
        (["analyze", "--input", "series.csv", "--estimators", ""],
         "analyze.estimators"),
        (["plot", "--csv", "a.csv", "--y", "pop", "--markers", ""],
         "plot.markers"),
    ])
    def test_empty_choice_list_exits_2(self, tmp_path, capsys, argv, key):
        # a list from a fixed vocabulary names one item at least
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert f"{key}: empty list (choose from " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["rwa", *model_flags(delta=2), "--t-max", "0.5",
          "--formats", "csv,svg,csv"], "output.formats: repeated format(s) csv"),
        (["sweep", *model_flags(), "--t-max", "1.5", "--deltas", "20",
          "--methods", "rwa,rwa"], "sweep.methods: repeated method(s) rwa"),
        (["analyze", "--input", "series.csv", "--estimators",
          "decay,frequency,decay"],
         "analyze.estimators: repeated estimator(s) decay"),
    ], ids=["output.formats", "sweep.methods", "analyze.estimators"])
    def test_repeated_choice_exits_2(self, tmp_path, capsys, argv, message):
        # these lists name a set; a sweep point recording rwa twice would
        # be refused by a resume naming it once
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub,formats", [
        ("rwa", "json"), ("evolve", "json"), ("sweep", "json"),
        ("polaron", "csv,svg"), ("analyze", "csv,svg"), ("plot", "csv,json")])
    def test_formats_selecting_nothing_exit_2(self, tmp_path, capsys, sub,
                                              formats):
        # refused before any computation or input read, so the input CSVs
        # need not exist
        out = tmp_path / "out"
        argv = [arg.format(s="s.csv", a="a.csv", b="b.csv")
                for arg in RERUN_ARGV[sub]]
        assert main(argv + ["--formats", formats, "--out-dir", str(out)]) == 2
        writes = ", ".join(_DISPATCH[sub][1])
        assert (f"output.formats: {formats.replace(',', ', ')} selects "
                f"nothing {sub} writes ({writes})") in capsys.readouterr().err
        assert not out.exists()

    def test_unselected_format_is_never_rendered(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("svg rendered for --formats csv")

        monkeypatch.setattr(gapchain.cli, "render_line_plot", refuse)
        out = tmp_path / "out"
        assert main(["rwa", *model_flags(delta=2, alpha=0.0), "--t-max", "1",
                     "--formats", "csv", "--out-dir", str(out)]) == 0
        assert manifest(out)["outputs"] == ["rwa.csv"]

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bin.ini"
        path.write_bytes(b"\xff\xfe\x00bad")
        code = main(["polaron", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"config: cannot read {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("sub,name,text,message", [
        ("polaron", "bad.json", '{"model": ', "config: {path} is not valid JSON: "),
        ("polaron", "bad.ini", "[model\nalpha = 1\n", "config: {path} is not valid INI: "),
        ("polaron", "list.json", "[1, 2]", "config: {path} must hold a JSON object"),
        ("analyze", "ragged.csv", "t,pop\n0,1\n1,2,3\n",
         "input: {path} row has 3 cells, header has 2"),
        ("analyze", "header.csv", "# note\nt,pop\n", "input: {path} is empty (no data rows)"),
    ], ids=["json", "ini", "json-array", "ragged-csv", "header-only-csv"])
    def test_unreadable_outside_input_exits_2(self, tmp_path, capsys, sub, name,
                                              text, message):
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "out"
        flag = "--config" if sub == "polaron" else "--input"
        assert main([sub, flag, str(path), "--out-dir", str(out)]) == 2
        assert message.format(path=path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "--input", "{csv}", "--alpha", "1", "--delta", "8"],
        ["plot", "--csv", "{csv}", "--y", "pop", "--alpha", "1",
         "--alpha2-time"],
    ], ids=["analyze", "plot"])
    def test_partial_model_exits_2(self, tmp_path, capsys, argv):
        csv, t = tmp_path / "series.csv", np.linspace(0.0, 25.0, 201)
        write_series_csv(csv, t, np.exp(-0.3 * t))
        out = tmp_path / "out"
        code = main([a.format(csv=csv) for a in argv]
                    + ["--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        for key in ("omega_b", "omega0", "omega_c"):
            assert f"model.{key}: required" in err
        assert "model.alpha" not in err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe\x00bad",
                                         b"t,pop\n0,1\n1,abc\n"],
                             ids=["non-utf8", "non-numeric"])
    @pytest.mark.parametrize("sub", ["analyze", "plot"])
    def test_malformed_input_csv_exits_2(self, tmp_path, capsys, sub,
                                         content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        out = tmp_path / "out"
        argv = (["analyze", "--input", str(path)] if sub == "analyze"
                else ["plot", "--csv", str(path), "--y", "pop"])
        assert main(argv + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input: " in err and str(path) in err
        assert not (out / "diagnostics.json").exists()

    def test_missing_alpha_exits_2(self, tmp_path, capsys):
        code = main(["polaron", "--omega-b", "5", "--omega0", "100",
                     "--omega-c", "800", "--delta", "30",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "model.alpha" in capsys.readouterr().err

    def test_numerical_failure_exits_1_with_diagnostics(self, tmp_path,
                                                        capsys):
        out = tmp_path / "out"
        code = main(["rwa", "--solver", "chain", *model_flags(delta=2),
                     "--t-max", "30", "--n-sites", "10",
                     "--out-dir", str(out)])
        assert code == 1
        assert "light-cone" in capsys.readouterr().err
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "RuntimeError"
        assert "light-cone" in diag["message"]
        assert diag["config"]["model"]["delta"] == 2.0
        assert not (out / "manifest.json").exists()


class TestPolaronCommand:
    def test_strong_splitting_residual_population(self, tmp_path):
        out = tmp_path / "out"
        code = main(["polaron", *model_flags(delta=30),
                     "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "polaron.json").read_text())
        assert doc["p_up_relaxed"] == pytest.approx(0.026, abs=1e-3)
        assert doc["p_up_relaxed"] + doc["p_up_dressed"] == pytest.approx(1.0)
        assert 0.0 < doc["phi"] <= 1.0
        assert manifest(out)["convergence"]["residual"] < 1e-6

    def test_document_is_delta_and_the_solution(self, tmp_path):
        out = tmp_path / "out"
        assert main(["polaron", *model_flags(delta=3),
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "polaron.json").read_text())
        assert list(doc) == sorted(
            ["delta", *(f.name for f in dataclasses.fields(PolaronSolution))])


class TestChainCoeffsCommand:
    def test_artifacts_and_values(self, tmp_path):
        out = tmp_path / "out"
        code = main(["chain-coeffs", *model_flags(delta=2),
                     "--n-sites", "8", "--out-dir", str(out)])
        assert code == 0
        meta, cols = read_csv(out / "chain_coeffs.csv")
        assert cols["n"].size == 8
        assert math.isnan(cols["hop"][-1])
        assert np.all(np.isfinite(cols["eps"]))
        doc = json.loads((out / "chain_coeffs.json").read_text())
        assert doc["eps"] == pytest.approx(list(cols["eps"]))
        assert doc["hop"] == pytest.approx(list(cols["hop"][:-1]))
        assert any(m.startswith("# g:") for m in meta)
        assert (out / "chain_coeffs.svg").exists()

    @pytest.mark.parametrize("argv, n_quad", [(["--n-sites", "60"], 2000),
                                              (["--n-sites", "700"], 2800)])
    def test_manifest_records_the_node_count_used(self, tmp_path, argv, n_quad):
        out = tmp_path / "out"
        assert main(["chain-coeffs", *model_flags(), *argv, "--out-dir", str(out)]) == 0
        assert manifest(out)["convergence"]["n_quad"] == n_quad

    def test_node_count_is_not_a_setting(self, tmp_path):
        # every count the recurrence accepts (>= 4N) gives the default
        # rule's coefficients to 6.5e-14, so neither a flag nor a file sets it
        ini = tmp_path / "chain.ini"
        ini.write_text(ini_text({"model": WIDEBAND,
                                 "chain": {"n_sites": 60, "n_quad": 3000}}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            main(["chain-coeffs", *model_flags(), "--n-sites", "60",
                  "--n-quad", "3000", "--out-dir", str(out)])
        assert stop.value.code == 2
        assert main(["chain-coeffs", "--config", str(ini), "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_manifest_echoes_only_what_it_reads(self, tmp_path):
        ini = tmp_path / "shared.ini"
        ini.write_text(ini_text({"model": WIDEBAND, "chain": {"n_sites": 60},
                                 "evolution": {"t_max": 9, "chi_max": 16},
                                 "analysis": {"fit_window_low": 0.3},
                                 "rwa": {"solver": "laplace"}}))
        out = tmp_path / "out"
        assert main(["chain-coeffs", "--config", str(ini),
                     "--out-dir", str(out)]) == 0
        assert manifest(out)["config"] == {
            "model": dict(WIDEBAND, delta=0.0), "chain": {"n_sites": 60},
            "output": {"directory": str(out),
                       "formats": ["csv", "json", "svg"]}}


class TestRwaCommand:
    def test_zero_coupling_population_is_flat(self, tmp_path):
        out = tmp_path / "out"
        code = main(["rwa", *model_flags(delta=2, alpha=0.0),
                     "--t-max", "3", "--out-dir", str(out)])
        assert code == 0
        _, cols = read_csv(out / "rwa.csv")
        assert np.all(cols["pop"] == 1.0)
        assert cols["t"][0] == 0.0 and cols["t"][-1] == 3.0

    def test_manifest_rerun_is_bit_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["rwa", *model_flags(delta=2), "--t-max", "0.5"]
        assert main(argv + ["--out-dir", str(out_a)]) == 0
        assert main(["rwa", "--config", str(out_a / "manifest.json"),
                     "--out-dir", str(out_b)]) == 0
        assert (out_a / "rwa.csv").read_bytes() == \
            (out_b / "rwa.csv").read_bytes()
        assert (out_a / "rwa.svg").read_bytes() == \
            (out_b / "rwa.svg").read_bytes()
        ma, mb = manifest(out_a), manifest(out_b)
        for doc in (ma, mb):
            del doc["wall_time_s"], doc["timestamp"]
            del doc["config"]["output"]["directory"]
        assert ma == mb

    def test_laplace_solver_flags_column(self, tmp_path):
        out = tmp_path / "out"
        code = main(["rwa", "--solver", "laplace", *model_flags(delta=2),
                     "--t-max", "0.5", "--samples", "41",
                     "--out-dir", str(out)])
        assert code == 0
        _, cols = read_csv(out / "rwa.csv")
        assert cols["t"][0] > 0.0
        assert "flag" in cols
        assert np.all(np.abs(cols["re_A"] + 1j * cols["im_A"]) <= 1 + 1e-6)
        conv = manifest(out)["convergence"]
        assert conv["flagged_points"] == 0
        assert conv["sum_rule_residual"] < 1e-10
        assert [pole["kind"] for pole in conv["poles"]] == ["bound"]

    def test_laplace_weak_coupling_exits_zero(self, tmp_path):
        # weak coupling puts a narrow line in the band; every point must
        # stay contractive (|A| <= 1 + 1e-6) and unflagged
        out = tmp_path / "out"
        code = main(["rwa", "--solver", "laplace", "--alpha", "0.02",
                     "--omega-b", "2", "--omega0", "20", "--omega-c", "100",
                     "--delta", "30", "--t-max", "1.5", "--samples", "100",
                     "--out-dir", str(out)])
        assert code == 0
        assert manifest(out)["convergence"]["flagged_points"] == 0

    def test_chain_solver_reports_sites(self, tmp_path):
        out = tmp_path / "out"
        code = main(["rwa", "--solver", "chain", *model_flags(delta=2),
                     "--t-max", "0.5", "--samples", "101",
                     "--out-dir", str(out)])
        assert code == 0
        conv = manifest(out)["convergence"]
        assert conv["chain_sites"] >= 2
        assert conv["n_quad"] == max(2000, 4 * conv["chain_sites"])
        _, cols = read_csv(out / "rwa.csv")
        assert cols["pop"][0] == pytest.approx(1.0)

    def test_solvers_agree(self, tmp_path):
        out_v, out_c = tmp_path / "v", tmp_path / "c"
        base = model_flags(delta=2) + ["--t-max", "0.5"]
        main(["rwa", *base, "--out-dir", str(out_v)])
        main(["rwa", "--solver", "chain", *base, "--samples", "101",
              "--out-dir", str(out_c)])
        _, cv = read_csv(out_v / "rwa.csv")
        _, cc = read_csv(out_c / "rwa.csv")
        pv = np.interp(cc["t"], cv["t"], cv["pop"])
        assert np.max(np.abs(pv - cc["pop"])) < 0.02


class TestEvolveCommand:
    def test_rwa_mode_run_and_conservation(self, tmp_path):
        out = tmp_path / "out"
        code = main(["evolve", "--alpha", "1", "--omega-b", "2",
                     "--omega0", "20", "--omega-c", "100", "--delta", "3",
                     "--t-max", "0.3", "--dt", "0.002", "--d-b", "4",
                     "--chi-max", "16", "--svd-threshold", "1e-8",
                     "--sample-stride", "5", "--n-sites", "60",
                     "--out-dir", str(out)])
        assert code == 0
        _, cols = read_csv(out / "evolve.csv")
        for name in ("t", "sigma_x", "sigma_y", "sigma_z", "pop_excited",
                     "max_bond", "discarded_weight", "conserved_charge"):
            assert name in cols
        assert cols["pop_excited"][0] == pytest.approx(1.0)
        conv = manifest(out)["convergence"]
        assert conv["charge_drift"] < 1e-10
        assert conv["flagged_samples"] == 0
        assert conv["chain_sites"] == 60
        assert (out / "evolve.svg").exists()

    def test_csv_header(self, tmp_path):
        out = tmp_path / "out"
        assert main(["evolve", *model_flags(delta=3), "--t-max", "0.01",
                     "--n-sites", "8", "--out-dir", str(out)]) == 0
        lines = (out / "evolve.csv").read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#"))
        assert header == ("t,sigma_x,sigma_y,sigma_z,pop_excited,norm_drift,"
                          "max_bond,discarded_weight,conserved_charge,"
                          "tail_occupation,flag")


class TestSweepCommand:
    def test_scan_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", *model_flags(), "--deltas", "20,30",
                     "--t-max", "1.5", "--samples", "801", "--jobs", "1",
                     "--out-dir", str(out)])
        assert code == 0
        _, summary = read_csv(out / "summary.csv")
        assert list(summary["delta"]) == [20.0, 30.0]
        assert np.all(np.isfinite(summary["stationary_pop_rwa"]))
        assert summary["stationary_pop_rwa"][1] < \
            summary["stationary_pop_rwa"][0]
        assert np.all(np.isnan(summary["stationary_pop_full"]))
        for d in (20.0, 30.0):
            meta, point = read_csv(out / f"point_delta_{d!r}.csv")
            assert point["delta"][0] == d
            for col in summary:
                i = 0 if d == 20.0 else 1
                a, b = point[col][0], summary[col][i]
                assert (a == b) or (math.isnan(a) and math.isnan(b))
            assert any(m.startswith("# manifest:") for m in meta)
        assert (out / "freq_vs_delta.svg").exists()
        assert (out / "stationary_pop_vs_delta.svg").exists()
        conv = manifest(out)["convergence"]
        assert conv["computed_points"] == [20.0, 30.0]
        assert conv["resumed_points"] == []

    def test_resume_completes_only_missing_points(self, tmp_path):
        out = tmp_path / "out"
        argv = ["sweep", *model_flags(), "--t-max", "1.5",
                "--samples", "801", "--jobs", "1", "--out-dir", str(out)]
        assert main(argv + ["--deltas", "20"]) == 0
        first = (out / "point_delta_20.0.csv").read_bytes()
        assert main(argv + ["--deltas", "20,30", "--resume"]) == 0
        conv = manifest(out)["convergence"]
        assert conv["resumed_points"] == [20.0]
        assert conv["computed_points"] == [30.0]
        assert (out / "point_delta_20.0.csv").read_bytes() == first
        _, summary = read_csv(out / "summary.csv")
        assert list(summary["delta"]) == [20.0, 30.0]

    def test_resumed_sweep_matches_fresh_run(self, tmp_path):
        resumed, fresh = tmp_path / "resumed", tmp_path / "fresh"
        argv = ["sweep", *model_flags(), "--t-max", "1.5",
                "--samples", "801", "--jobs", "1"]
        assert main(argv + ["--deltas", "20", "--out-dir", str(resumed)]) == 0
        assert main(argv + ["--deltas", "20,30", "--resume",
                            "--out-dir", str(resumed)]) == 0
        assert main(argv + ["--deltas", "20,30", "--out-dir", str(fresh)]) == 0
        for name in ("summary.csv", "point_delta_20.0.csv",
                     "point_delta_30.0.csv"):
            assert (resumed / name).read_bytes() == (fresh / name).read_bytes()

    def test_point_csvs_state_their_own_delta(self, tmp_path):
        # a resume that differs only in a file's model.delta, which sweep
        # does not read, reuses every point
        out = tmp_path / "out"
        argv = ["sweep", "--t-max", "1.5", "--samples", "801", "--jobs", "1",
                "--deltas", "20,30", "--out-dir", str(out)]
        for name, model in (("first.ini", dict(WIDEBAND, delta=7.0)),
                            ("again.ini", WIDEBAND)):
            (tmp_path / name).write_text(ini_text({"model": model}))
        assert main(argv + ["--config", str(tmp_path / "first.ini")]) == 0
        first = (out / "summary.csv").read_text().splitlines()
        assert first[0] == ("# model: alpha=1.0 omega_b=5.0 omega0=100.0 "
                            "omega_c=800.0")
        for d in (20.0, 30.0):
            meta, _ = read_csv(out / f"point_delta_{d!r}.csv")
            assert meta[0] == (f"# model: alpha=1.0 omega_b=5.0 omega0=100.0"
                               f" omega_c=800.0 delta={d!r}")
        assert main(argv + ["--config", str(tmp_path / "again.ini"),
                            "--resume"]) == 0
        conv = manifest(out)["convergence"]
        assert conv["resumed_points"] == [20.0, 30.0]
        assert conv["computed_points"] == []
        assert (out / "summary.csv").read_text().splitlines() == first

    def test_resume_reuses_point_csv_verbatim(self, tmp_path):
        # sentinel values prove the resumed point is read, not recomputed
        out = tmp_path / "out"
        argv = ["sweep", *model_flags(), "--t-max", "1.5",
                "--samples", "801", "--jobs", "1", "--out-dir", str(out)]
        assert main(argv + ["--deltas", "20"]) == 0
        point = out / "point_delta_20.0.csv"
        lines = point.read_text().splitlines()
        lines[-1] = "20.0,0.125,nan,1.5,2.5,9.0"
        point.write_text("\n".join(lines) + "\n")
        edited = point.read_bytes()
        assert main(argv + ["--deltas", "20,30", "--resume"]) == 0
        assert point.read_bytes() == edited
        _, summary = read_csv(out / "summary.csv")
        assert [summary[k][0] for k in ("stationary_pop_rwa", "freq_rwa",
                                        "freq_full", "decay_rwa")] == \
            [0.125, 1.5, 2.5, 9.0]
        assert "point_delta_20.0.csv" in manifest(out)["outputs"]

    @pytest.mark.parametrize("change,field,recorded,now", [
        (["--alpha", "2.0"], "model", "alpha=1.0", "alpha=2.0"),
        (["--methods", "rwa,full", "--mode", "FULL", "--d-b", "4"], "methods",
         "['rwa']", "['full', 'rwa']"),
        (["--t-max", "1.0"], "rwa.t_max", "1.5", "1.0"),
        (["--samples", "401"], "rwa.samples", "801", "401"),
    ], ids=["model", "methods", "t_max", "samples"])
    def test_resume_refuses_points_of_another_run(self, tmp_path, capsys,
                                                  change, field, recorded,
                                                  now):
        out = tmp_path / "out"
        argv = ["sweep", *model_flags(), "--t-max", "1.5", "--samples", "801",
                "--jobs", "1", "--deltas", "20,30", "--out-dir", str(out)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        # a later flag overrides an earlier one
        assert main(argv + ["--resume", *change]) == 2
        err = capsys.readouterr().err
        point = out / "point_delta_20.0.csv"
        assert f"input: {point} differs from this run in {field}: " in err
        assert recorded in err.split("recorded")[1].split("this run")[0]
        assert now in err.split("this run")[-1]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("change,field", [
        (["--chi-max", "8"], "full.chi_max"), (["--d-b", "5"], "full.d_b"),
        (["--dt", "0.0005"], "full.dt"),
        (["--svd-threshold", "1e-8"], "full.svd_threshold"),
        (["--sample-stride", "5"], "full.sample_stride"),
    ], ids=["chi_max", "d_b", "dt", "svd_threshold", "sample_stride"])
    def test_resume_refuses_full_points_of_other_settings(self, tmp_path,
                                                          capsys, change,
                                                          field):
        out = tmp_path / "out"
        argv = ["sweep", "--alpha", "1", "--omega-b", "2", "--omega0", "20",
                "--omega-c", "100", "--methods", "full", "--mode", "FULL",
                "--t-max", "0.03", "--d-b", "4", "--chi-max", "16",
                "--jobs", "1", "--deltas", "3", "--out-dir", str(out)]
        assert main(argv) == 0
        assert main(argv + ["--resume"]) == 0
        assert manifest(out)["convergence"]["resumed_points"] == [3.0]
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv + ["--resume", *change]) == 2
        assert (f"input: {out / 'point_delta_3.0.csv'} differs from this run "
                f"in {field}: ") in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_unset_t_max_and_samples_take_the_sweeps_defaults(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", *model_flags(), "--deltas", "20", "--jobs", "1",
                     "--out-dir", str(out)]) == 0
        recorded = point_manifest(out / "point_delta_20.0.csv")["rwa"]
        p = ModelParams(**WIDEBAND)
        assert (recorded["t_max"], recorded["samples"]) == (30.0 / p.omega_s, 2001)
        assert recorded["chain_sites"] == chain_length_for(p, 30.0 / p.omega_s)

    def test_resume_ignores_outcomes_but_not_other_recorded_keys(
            self, tmp_path, capsys, monkeypatch):
        # a key named in analysis.POINT_OUTCOMES is what the point found, so
        # any value of it is reused; any other key only the point records is
        # a setting this run did not make
        out = tmp_path / "out"
        argv = ["sweep", *model_flags(), "--t-max", "1.5", "--samples", "801",
                "--jobs", "1", "--deltas", "20", "--out-dir", str(out)]
        assert main(argv) == 0
        point = out / "point_delta_20.0.csv"
        sites = point_manifest(point)["rwa"]["chain_sites"]
        point.write_text(point.read_text().replace(
            f'"chain_sites": {sites}', '"chain_sites": 7, "health": 0.5'))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 2
        assert (f"input: {point} differs from this run in rwa.health: "
                "recorded 0.5, this run None") in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        monkeypatch.setattr(analysis, "POINT_OUTCOMES", ("chain_sites", "health"))
        assert main(argv + ["--resume"]) == 0
        assert manifest(out)["convergence"]["resumed_points"] == [20.0]

    def test_point_csvs_written_whatever_the_formats(self, tmp_path, capsys):
        # the point CSVs are the resume store: --formats svg keeps them, and
        # a formats list refused before any point leaves them untouched
        out = tmp_path / "out"
        argv = ["sweep", *model_flags(), "--t-max", "1.5", "--samples", "801",
                "--jobs", "1", "--deltas", "20,30", "--out-dir", str(out)]
        assert main(argv + ["--formats", "svg"]) == 0
        written = ["freq_vs_delta.svg", "point_delta_20.0.csv",
                   "point_delta_30.0.csv", "stationary_pop_vs_delta.svg"]
        assert manifest(out)["outputs"] == written
        assert sorted(p.name for p in out.iterdir()) == sorted(
            written + ["manifest.json"])
        assert main(argv + ["--formats", "svg", "--resume"]) == 0
        conv = manifest(out)["convergence"]
        assert conv["resumed_points"] == [20.0, 30.0]
        assert conv["computed_points"] == []
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv + ["--formats", "json", "--resume"]) == 2
        assert "output.formats: " in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_refuses_points_recording_observables(self, tmp_path,
                                                         capsys):
        # a point from the time population and coherence ran separately
        # records full.observables; a population-only one holds a NaN
        # freq_full that a resume must not reuse
        out = tmp_path / "out"
        argv = ["sweep", "--alpha", "1", "--omega-b", "2", "--omega0", "20",
                "--omega-c", "100", "--methods", "full", "--mode", "FULL",
                "--t-max", "0.03", "--d-b", "4", "--chi-max", "16",
                "--jobs", "1", "--deltas", "3", "--out-dir", str(out)]
        assert main(argv) == 0
        point = out / "point_delta_3.0.csv"
        text = point.read_text()
        assert '"observables"' not in text
        point.write_text(text.replace(
            '"full": {"', '"full": {"observables": ["population"], "', 1))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 2
        assert (f"input: {point} differs from this run in full.observables: "
                "recorded ['population'], this run None"
                ) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("header,manifest_line,message", [
        ("stationary_pop_rwa,stationary_pop_full,freq_rwa,freq_full,"
         "decay_rwa", "{}", "lacks columns ['delta']"),
        ("delta,stationary_pop_rwa,stationary_pop_full,freq_rwa,decay_rwa",
         "{}", "lacks columns ['freq_full']"),
        ("delta,stationary_pop_rwa,stationary_pop_full,freq_rwa,freq_full,"
         "decay_rwa", "{not json", "manifest is not a JSON object"),
        ("delta,stationary_pop_rwa,stationary_pop_full,freq_rwa,freq_full,"
         "decay_rwa", "[1, 2]", "manifest is not a JSON object"),
    ], ids=["no-delta", "no-sweep-column", "manifest-not-json",
            "manifest-not-object"])
    def test_bad_point_csv_on_resume_exits_2(self, tmp_path, capsys, header,
                                             manifest_line, message):
        out = tmp_path / "out"
        out.mkdir()
        cells = ",".join("20.0" if h == "delta" else "0.5"
                         for h in header.split(","))
        point = out / "point_delta_20.0.csv"
        point.write_text(f"# manifest: {manifest_line}\n{header}\n{cells}\n")
        code = main(["sweep", *model_flags(), "--deltas", "20",
                     "--t-max", "1.5", "--jobs", "1", "--resume",
                     "--out-dir", str(out)])
        assert code == 2
        assert f"input: {point} {message}" in capsys.readouterr().err
        assert not (out / "diagnostics.json").exists()
        assert not (out / "manifest.json").exists()

    def test_failed_point_keeps_finished_points(self, tmp_path, monkeypatch):
        scan_point = analysis._scan_point

        def overflow_at_30(delta, *rest):
            if delta == 30.0:
                raise OverflowError("injected failure at delta 30")
            return scan_point(delta, *rest)

        argv = ["sweep", *model_flags(), "--t-max", "1.5", "--samples", "801",
                "--jobs", "1", "--deltas", "20,25,30"]
        broken, fresh = tmp_path / "broken", tmp_path / "fresh"
        monkeypatch.setattr(analysis, "_scan_point", overflow_at_30)
        assert main(argv + ["--out-dir", str(broken)]) == 1
        assert sorted(p.name for p in broken.glob("point_*.csv")) == [
            "point_delta_20.0.csv", "point_delta_25.0.csv"]
        monkeypatch.undo()
        assert main(argv + ["--resume", "--out-dir", str(broken)]) == 0
        assert main(argv + ["--out-dir", str(fresh)]) == 0
        for name in ("summary.csv", "point_delta_20.0.csv",
                     "point_delta_25.0.csv", "point_delta_30.0.csv"):
            assert (broken / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers see the patched point")
    def test_killed_worker_keeps_finished_points(self, tmp_path, monkeypatch):
        argv = ["sweep", *model_flags(), "--t-max", "1.5", "--samples", "801",
                "--jobs", "2", "--deltas", "20,25,30"]
        broken, fresh = tmp_path / "broken", tmp_path / "fresh"
        monkeypatch.setattr(analysis, "_scan_point", sigkill_at_25)
        assert main(argv + ["--out-dir", str(broken)]) == 0
        failures = manifest(broken)["convergence"]["failures"]
        assert "25.0" in failures
        assert all(list(f) == ["worker"] for f in failures.values())
        lost = sorted(float(d) for d in failures)
        assert sorted(p.name for p in broken.glob("point_*.csv")) == [
            f"point_delta_{d!r}.csv" for d in (20.0, 25.0, 30.0)
            if d not in lost]
        monkeypatch.undo()
        assert main(argv + ["--resume", "--out-dir", str(broken)]) == 0
        conv = manifest(broken)["convergence"]
        assert conv["computed_points"] == lost
        assert conv["failures"] == {}
        assert main(argv + ["--out-dir", str(fresh)]) == 0
        for name in ("summary.csv", "point_delta_20.0.csv",
                     "point_delta_25.0.csv", "point_delta_30.0.csv"):
            assert (broken / name).read_bytes() == (fresh / name).read_bytes()

    def test_chain_is_mapped_once_per_sweep(self, tmp_path, monkeypatch):
        calls = []
        map_to_chain = analysis.map_to_chain

        def counted(*args, **kwargs):
            calls.append(args)
            return map_to_chain(*args, **kwargs)

        monkeypatch.setattr(analysis, "map_to_chain", counted)
        assert main(["sweep", *model_flags(), "--t-max", "1.5",
                     "--samples", "801", "--jobs", "1",
                     "--deltas", "20,25,30",
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    @pytest.fixture
    def pid_log(self, tmp_path, monkeypatch):
        """Log the pid of every map_to_chain and chain_evolve call.

        Forked workers inherit the patched module globals, so a call in a
        worker lands in the same files as a call in this process.
        """
        def logged(name, fn):
            def call(*args, **kwargs):
                with (tmp_path / name).open("a") as fh:
                    fh.write(f"{os.getpid()}\n")
                return fn(*args, **kwargs)
            monkeypatch.setattr(analysis, name, call)

        logged("map_to_chain", analysis.map_to_chain)
        logged("chain_evolve", analysis.chain_evolve)

        def read(name):
            path = tmp_path / name
            return [int(s) for s in path.read_text().split()] if path.exists() else []
        return read

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers see the patched functions")
    def test_workers_get_the_parents_chain(self, tmp_path, pid_log):
        assert main(["sweep", *model_flags(), "--t-max", "1.5",
                     "--samples", "801", "--jobs", "2",
                     "--deltas", "20,25,30",
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert pid_log("map_to_chain") == [os.getpid()]
        evolved = pid_log("chain_evolve")
        assert len(evolved) == 3 and os.getpid() not in evolved

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers see the patched functions")
    def test_parent_maps_once_per_distinct_t_max(self, pid_log, monkeypatch):
        mapped = []
        map_to_chain = analysis.map_to_chain

        def sized(p, n, *rest):
            mapped.append(n)
            return map_to_chain(p, n, *rest)

        monkeypatch.setattr(analysis, "map_to_chain", sized)
        base = ModelParams(alpha=1.0, omega_b=2.0, omega0=20.0, omega_c=100.0)
        fc = EvolutionConfig(t_max=0.1, dt=2e-3, d_b=4, chi_max=8,
                             svd_threshold=1e-8, mode="FULL")
        cfgs = {"rwa": {"t_max": 0.5, "samples": 201}, "full": fc}
        points = list(analysis.crossover_scan(
            [2.0, 3.0, 4.0], base, analysis.point_settings(("rwa", "full"), base, cfgs),
            jobs=2))
        assert len(points) == 3
        assert all("worker" not in m["failures"] for _, _, m in points)
        assert sorted(mapped) == sorted(chain_length_for(base, t)
                                        for t in (0.1, 0.5))
        assert pid_log("map_to_chain") == [os.getpid()] * 2

    def test_mapping_failure_recorded_at_every_point(self, tmp_path):
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", *model_flags(alpha=0.0), "--t-max", "1.5",
                         "--jobs", jobs, "--deltas", "20,30",
                         "--out-dir", str(out)]) == 0
            failures = manifest(out)["convergence"]["failures"]
            assert sorted(failures) == ["20.0", "30.0"]
            assert all("alpha = 0" in f["rwa"] for f in failures.values())

    def test_full_method_needs_full_mode(self, tmp_path, capsys):
        code = main(["sweep", *model_flags(), "--deltas", "1",
                     "--methods", "rwa,full", "--t-max", "0.1",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "evolution.mode" in capsys.readouterr().err

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        code = main(["sweep", *model_flags(), "--deltas", "1",
                     "--methods", "rwa,bogus",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "sweep.methods" in capsys.readouterr().err


class TestAnalyzeCommand:
    def synthetic(self, tmp_path):
        t = np.linspace(0.0, 25.0, 2001)
        y = 0.2 + np.exp(-0.5 * t) * np.cos(8.0 * t)
        path = tmp_path / "series.csv"
        write_series_csv(path, t, y)
        return path

    def test_estimators_on_synthetic_series(self, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(self.synthetic(tmp_path)),
                     "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "analysis.json").read_text())
        res = doc["results"]
        assert res["frequency"]["value"] == pytest.approx(8.0, rel=1e-3)
        assert res["zero_crossing"]["value"] == pytest.approx(8.0, rel=1e-2)
        assert res["stationary"]["value"] == pytest.approx(0.2, abs=2e-3)
        assert res["decay"]["value"] == pytest.approx(0.5, rel=0.05)
        assert doc["signal"] == "pop"

    def test_stationary_entry_is_the_estimate_and_its_attributes(self, tmp_path):
        path = self.synthetic(tmp_path)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--estimators",
                     "stationary", "--out-dir", str(out)]) == 0
        entry = json.loads((out / "analysis.json").read_text())["results"][
            "stationary"]
        fields = inspect.signature(analysis.StationaryEstimate).parameters
        assert sorted(entry) == sorted(fields)  # value, then what it carries
        _, cols = read_csv(path)
        est = analysis.stationary_value((cols["t"], cols["pop"]))
        assert entry == {"value": float(est), **vars(est)}

    def test_fit_window_and_exclusions_trim_the_series(self, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(self.synthetic(tmp_path)),
                     "--fit-window-low", "0.1", "--fit-window-high", "0.9",
                     "--exclude", "5:6", "--estimators", "frequency",
                     "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "analysis.json").read_text())
        assert doc["t_range"][0] == pytest.approx(2.5, abs=0.1)
        assert doc["t_range"][1] == pytest.approx(22.5, abs=0.1)
        assert doc["n_points"] < 1601
        assert doc["results"]["frequency"]["value"] == pytest.approx(
            8.0, rel=1e-2)

    def test_failed_estimator_exits_1_but_persists(self, tmp_path):
        t = np.linspace(0.0, 25.0, 1251)
        path = tmp_path / "flat.csv"
        write_series_csv(path, t, np.exp(-0.3 * t))
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(path), "--out-dir", str(out)])
        assert code == 1
        doc = json.loads((out / "analysis.json").read_text())
        assert "error" in doc["results"]["frequency"]
        assert doc["results"]["decay"]["value"] == pytest.approx(0.3,
                                                                 rel=0.05)
        assert manifest(out)["convergence"]["estimators_failed"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_column_fails_every_estimator(self, tmp_path, bad):
        # a refused sweep point is a NaN cell: no estimator may report a
        # value from a column holding one
        t = np.linspace(0.0, 25.0, 2001)
        y = 0.2 + np.exp(-0.5 * t) * np.cos(8.0 * t)
        y[1000] = bad
        path = tmp_path / "series.csv"
        write_series_csv(path, t, y)
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(path), "--out-dir", str(out)])
        assert code == 1
        results = json.loads((out / "analysis.json").read_text())["results"]
        assert sorted(results) == sorted(manifest(out)["convergence"]
                                         ["estimators_failed"])
        for name in ("frequency", "zero_crossing", "stationary", "decay"):
            assert set(results[name]) == {"error"}
            assert "non-finite" in results[name]["error"]

    def test_amplitude_signal_is_the_modulus_of_a(self, tmp_path):
        # rwa.csv holds re_A and im_A; the amplitude signal is |A|, whose
        # stationary value is the square root of the population's
        t = np.linspace(0.0, 25.0, 2001)
        a = (0.3 + 0.5 * np.exp(-0.5 * t)) * np.exp(-8j * t)
        path = tmp_path / "rwa.csv"
        path.write_text("t,re_A,im_A\n" + "".join(
            f"{float(x)!r},{v.real.item()!r},{v.imag.item()!r}\n" for x, v in zip(t, a)))
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--signal", "amplitude",
                     "--estimators", "stationary,decay", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "analysis.json").read_text())
        assert doc["signal"] == "amplitude"
        assert doc["results"]["stationary"]["value"] == pytest.approx(0.3, abs=1e-3)
        assert doc["results"]["decay"]["value"] == pytest.approx(0.5, rel=0.05)

    def test_pole_block_present_with_model(self, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(self.synthetic(tmp_path)),
                     *model_flags(delta=8), "--estimators", "frequency",
                     "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "analysis.json").read_text())
        assert doc["pole_estimate"]["regime"] == "small_finite"
        assert doc["pole_estimate"]["frequency"] > 0

    @pytest.mark.filterwarnings("error")
    def test_two_row_series_refused_without_warning(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(path, [0.0, 1.0], [1.0, -1.0])
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(path), "--estimators", "zero_crossing",
                     "--out-dir", str(out)])
        assert code == 1
        results = json.loads((out / "analysis.json").read_text())["results"]
        assert results == {"zero_crossing": {"error": "insufficient periods: series too short"}}

    def test_missing_signal_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        write_series_csv(path, np.arange(4.0), np.arange(4.0), name="other")
        code = main(["analyze", "--input", str(path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "analyze.signal" in capsys.readouterr().err

    @pytest.mark.parametrize("case, row, holds", [
        ("reversed", 2, "9.95"), ("interleaved", 102, "0.05 after 10.0"),
        ("repeated", 151, "7.45 after 7.45"), ("inf", 201, "inf after 9.95"),
        ("nan", 1, "nan")], ids=["reversed", "interleaved", "repeated", "inf", "nan"])
    def test_x_not_finite_and_increasing_exits_2(self, tmp_path, capsys, case, row, holds):
        # an unsorted column once gave a wrong zero crossing (exit 1), and a
        # reversed one or an infinite time a misleading fit-window error
        t = np.linspace(0.0, 10.0, 201)
        y = 0.5 + 0.4 * np.cos(3.0 * t) * np.exp(-0.1 * t)
        rows = {"reversed": np.arange(201)[::-1],
                "interleaved": np.r_[0:201:2, 1:201:2],
                "repeated": np.r_[0:150, 149:200]}.get(case, np.arange(201))
        t, y = t[rows], y[rows]
        if case in ("inf", "nan"):
            t[{"inf": -1, "nan": 0}[case]] = float(case)
        path = tmp_path / "series.csv"
        write_series_csv(path, t, y)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--signal", "pop",
                     "--out-dir", str(out)]) == 2
        assert (f"input: {path} column 't' must be finite and strictly increasing; "
                f"data row {row} holds {holds}") in capsys.readouterr().err
        assert not out.exists()

    def test_missing_x_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        write_series_csv(path, np.arange(4.0), np.arange(4.0))
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--x", "nope",
                     "--out-dir", str(out)]) == 2
        assert "analyze.x: column 'nope'" in capsys.readouterr().err
        assert not out.exists()  # the first artifact makes the directory


class TestPlotCommand:
    def two_series(self, tmp_path):
        t = np.linspace(0.0, 10.0, 101)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series_csv(a, t, np.exp(-0.2 * t))
        write_series_csv(b, t, 1.0 - np.exp(-0.2 * t))
        return a, b

    def test_overlay_markers_and_determinism(self, tmp_path):
        a, b = self.two_series(tmp_path)
        out = tmp_path / "out"
        argv = ["plot", "--csv", str(a), "--csv", str(b), "--y", "pop",
                "--labels", "first,second", "--title", "overlay",
                "--out-dir", str(out)]
        assert main(argv) == 0
        svg = (out / "plot.svg").read_text()
        assert 'fill="#1f5fa8"' in svg          # filled for series one
        assert 'fill="#ffffff"' in svg          # open for series two
        assert ">first<" in svg and ">second<" in svg
        first = (out / "plot.svg").read_bytes()
        assert main(argv) == 0
        assert (out / "plot.svg").read_bytes() == first

    def test_missing_column_exits_2(self, tmp_path, capsys):
        a, _ = self.two_series(tmp_path)
        out = tmp_path / "out"
        code = main(["plot", "--csv", str(a), "--y", "nope",
                     "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "plot.y" in err and "nope" in err
        assert not out.exists()  # the first artifact makes the directory

    def test_unknown_marker_exits_2(self, tmp_path, capsys):
        a, _ = self.two_series(tmp_path)
        out = tmp_path / "out"
        code = main(["plot", "--csv", str(a), "--y", "pop",
                     "--markers", "bogus", "--out-dir", str(out)])
        assert code == 2
        assert "plot.markers: unknown marker(s) bogus" in \
            capsys.readouterr().err
        assert not (out / "diagnostics.json").exists()

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing\nt,pop\n")
        code = main(["plot", "--csv", str(path), "--y", "pop",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_log_y_without_positive_value_exits_2(self, tmp_path, capsys):
        # the input holds nothing to draw on a log scale: a config error,
        # not a numerical failure with diagnostics
        path = tmp_path / "negative.csv"
        write_series_csv(path, np.linspace(0.0, 1.0, 11), -np.linspace(0.0, 1.0, 11))
        out = tmp_path / "out"
        code = main(["plot", "--csv", str(path), "--y", "pop", "--log-y",
                     "--out-dir", str(out)])
        assert code == 2
        assert "log scale drops y <= 0" in capsys.readouterr().err
        assert not out.exists()  # no plot.svg, no diagnostics.json

    def test_span_finer_than_labels_plots(self, tmp_path, time_limit):
        # 1e16 + 4 is the next double but one above 1e16: a tick step
        # scaled to that span would not move a tick at 1e16
        path = tmp_path / "flat.csv"
        write_series_csv(path, [0.0, 1.0, 2.0], [1e16, 1e16 + 4, 1e16])
        out = tmp_path / "out"
        with time_limit(2):
            code = main(["plot", "--csv", str(path), "--y", "pop",
                         "--out-dir", str(out)])
        assert code == 0
        assert ">1e+16<" in (out / "plot.svg").read_text()

    def test_alpha2_time_needs_alpha(self, tmp_path, capsys):
        a, _ = self.two_series(tmp_path)
        code = main(["plot", "--csv", str(a), "--y", "pop", "--alpha2-time",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "model.alpha" in capsys.readouterr().err

    def test_alpha2_time_rescales_x(self, tmp_path):
        a, _ = self.two_series(tmp_path)
        out = tmp_path / "out"
        code = main(["plot", "--csv", str(a), "--y", "pop", "--alpha2-time",
                     *model_flags(alpha=0.5), "--out-dir", str(out)])
        assert code == 0
        svg = (out / "plot.svg").read_text()
        assert "t * alpha^2" in svg
        assert ">2.5<" in svg                    # 10 * 0.25 axis maximum

    def test_log_y(self, tmp_path):
        a, _ = self.two_series(tmp_path)
        out = tmp_path / "out"
        code = main(["plot", "--csv", str(a), "--y", "pop", "--log-y",
                     "--out-dir", str(out)])
        assert code == 0
        assert "1e0" in (out / "plot.svg").read_text()

    def test_output_name_confined_to_outdir(self, tmp_path, capsys):
        a, _ = self.two_series(tmp_path)
        code = main(["plot", "--csv", str(a), "--y", "pop",
                     "--out", "../escape.svg",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "separator" in capsys.readouterr().err
        assert not (tmp_path / "escape.svg").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["", ".svg"])
    def test_empty_output_name_exits_2(self, tmp_path, capsys, name):
        # the name would be the hidden file .svg
        a, _ = self.two_series(tmp_path)
        out = tmp_path / "out"
        assert main(["plot", "--csv", str(a), "--y", "pop", "--out", name,
                     "--out-dir", str(out)]) == 2
        assert f"plot.out: {name!r} is not a file name" in \
            capsys.readouterr().err
        assert not out.exists()


# non-default own options at tiny corners; {s}, {a} and {b} are input CSVs
RERUN_ARGV = {
    "chain-coeffs": ["chain-coeffs", *model_flags(delta=2), "--n-sites", "8"],
    "rwa": ["rwa", "--solver", "laplace", "--samples", "21",
            *model_flags(delta=2), "--t-max", "0.5"],
    "evolve": ["evolve", "--atom-state", "plus_superposition", "--alpha", "1",
               "--omega-b", "2", "--omega0", "20", "--omega-c", "100",
               "--delta", "3", "--t-max", "0.1", "--dt", "0.002",
               "--d-b", "4", "--chi-max", "8", "--sample-stride", "5",
               "--n-sites", "12"],
    "polaron": ["polaron", *model_flags(delta=30)],
    "sweep": ["sweep", *model_flags(), "--deltas", "30,20", "--t-max", "1.5",
              "--samples", "801", "--jobs", "1"],
    "analyze": ["analyze", "--input", "{s}", "--fit-window-low", "0.2",
                "--estimators", "decay,frequency"],
    "plot": ["plot", "--csv", "{a}", "--csv", "{b}", "--y", "pop",
             "--labels", "first,second", "--markers", "open,filled",
             "--log-y", "--title", "two decays", "--out", "decays"],
}


class TestManifestRerun:
    """Each subcommand reruns from its own manifest.json, byte for byte."""

    @pytest.mark.parametrize("sub", sorted(RERUN_ARGV))
    def test_rerun_regenerates_every_artifact(self, tmp_path, sub):
        t = np.linspace(0.0, 25.0, 2001)
        paths = {k: tmp_path / f"{k}.csv" for k in "sab"}
        write_series_csv(paths["s"], t, 0.2 + np.exp(-0.5 * t) * np.cos(8 * t))
        write_series_csv(paths["a"], t, np.exp(-0.2 * t))
        write_series_csv(paths["b"], t, 0.5 * np.exp(-0.1 * t))
        argv = [arg.format(**paths) for arg in RERUN_ARGV[sub]]
        out_a, out_b = tmp_path / "first", tmp_path / "again"
        assert main(argv + ["--out-dir", str(out_a)]) == 0
        assert main([sub, "--config", str(out_a / "manifest.json"),
                     "--out-dir", str(out_b)]) == 0
        ma, mb = manifest(out_a), manifest(out_b)
        assert ma["outputs"] and ma["outputs"] == mb["outputs"]
        # at the default formats a subcommand writes every format it states
        assert {Path(name).suffix[1:] for name in ma["outputs"]} == \
            set(_DISPATCH[sub][1])
        for name in ma["outputs"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for doc in (ma, mb):
            del doc["wall_time_s"], doc["timestamp"]
            del doc["config"]["output"]["directory"]
        assert ma == mb


class TestManifest:
    def test_older_manifest_is_a_config(self, tmp_path):
        # written before each subcommand echoed only what it reads: the
        # blocks and keys rwa does not read are skipped
        old = tmp_path / "manifest.json"
        old.write_text(json.dumps({"subcommand": "rwa", "config": {
            "analysis": {"fit_window_high": 1.0, "fit_window_low": 0.0},
            "evolution": {"chi_max": 16, "d_b": 6, "mode": "RWA",
                          "sample_stride": 10, "svd_threshold": 1e-10,
                          "t_max": 0.5},
            "model": dict(WIDEBAND, delta=2.0),
            "output": {"directory": "elsewhere",
                       "formats": ["csv", "json", "svg"]},
            "rwa": {"no_self_check": False, "samples": 1001,
                    "solver": "volterra"}}}))
        out_old, out_new = tmp_path / "old", tmp_path / "new"
        assert main(["rwa", "--config", str(old),
                     "--out-dir", str(out_old)]) == 0
        assert main(["rwa", *model_flags(delta=2), "--t-max", "0.5",
                     "--out-dir", str(out_new)]) == 0
        assert (out_old / "rwa.csv").read_bytes() == \
            (out_new / "rwa.csv").read_bytes()
        config = manifest(out_old)["config"]
        assert sorted(config) == ["evolution", "model", "output", "rwa"]
        assert config["evolution"] == {"t_max": 0.5}

    def test_only_outdir_is_touched(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "only"
        code = main(["rwa", *model_flags(delta=2, alpha=0.0),
                     "--t-max", "1", "--out-dir", str(out)])
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["only"]
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "rwa.csv", "rwa.svg"]

    def test_versions_and_echo_recorded(self, tmp_path):
        out = tmp_path / "out"
        main(["rwa", *model_flags(delta=2, alpha=0.0), "--t-max", "1",
              "--formats", "csv", "--out-dir", str(out)])
        doc = manifest(out)
        assert sorted(doc["versions"]) == ["gapchain", "numpy", "python"]
        assert all(doc["versions"].values())
        assert doc["subcommand"] == "rwa"
        assert doc["config"]["model"]["omega_b"] == 5.0
        assert doc["config"]["output"]["formats"] == ["csv"]
        assert doc["outputs"] == ["rwa.csv"]
        assert doc["config"]["rwa"]["solver"] == "volterra"
        assert doc["wall_time_s"] >= 0.0


def test_import_loads_only_what_every_run_uses():
    # no scipy or mpmath (test oracles only), no process pool (sweep --jobs
    # imports it when it starts workers) and no numpy.polynomial (the
    # Gauss-Legendre tables are literals)
    src = str(Path(gapchain.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import gapchain.cli; "
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'mpmath', 'concurrent', 'multiprocessing')"
            " or m.startswith('numpy.polynomial')))"
            % src)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"


# refuses to import scipy or mpmath, then runs the CLI on argv lists; a
# function-local import anywhere on a subcommand's path fails its run
_REFUSING_RUNNER = """
import json, sys
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "mpmath"):
            raise ImportError("refused: " + name)
sys.meta_path.insert(0, Refuse())
sys.path.insert(0, sys.argv[1])
import gapchain.cli
codes = [gapchain.cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps(codes))
"""


def test_every_subcommand_runs_with_scipy_refused(tmp_path):
    src = str(Path(gapchain.__file__).resolve().parents[1])
    reduced = ["--alpha", "1", "--omega-b", "2", "--omega0", "20", "--omega-c", "100"]
    out = tmp_path.joinpath
    runs = [
        ["chain-coeffs", *model_flags(), "--n-sites", "60", "--out-dir", str(out("chain"))],
        *[["rwa", *model_flags(delta=3), "--solver", solver, "--t-max", "0.5",
           "--samples", "51", "--out-dir", str(out(solver))]
          for solver in ("volterra", "laplace", "chain")],
        *[["evolve", *reduced, "--delta", "3", "--mode", mode, "--d-b", d_b,
           "--chi-max", "8", "--t-max", "0.02", "--out-dir", str(out(mode))]
          for mode, d_b in (("RWA", "2"), ("FULL", "4"))],
        ["polaron", *model_flags(delta=3), "--out-dir", str(out("polaron"))],
        *[["sweep", "--methods", "rwa", *model_flags(), "--t-max", "0.5", "--deltas", "3,20",
           "--jobs", jobs, "--out-dir", str(out("sweep" + jobs))] for jobs in ("1", "2")],
        ["analyze", "--input", str(out("chain", "rwa.csv")), "--signal", "amplitude",
         "--estimators", "stationary", "--out-dir", str(out("amplitude"))],
        ["analyze", "--input", str(out("RWA", "evolve.csv")), "--estimators", "stationary",
         "--out-dir", str(out("analyze"))],
        ["plot", "--csv", str(out("sweep1", "summary.csv")), "--x", "delta",
         "--y", "stationary_pop_rwa", "--out-dir", str(out("plot"))],
    ]
    run = subprocess.run([sys.executable, "-c", _REFUSING_RUNNER, src, json.dumps(runs)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [0] * len(runs), run.stderr
    summary = out("sweep1", "summary.csv").read_bytes()
    assert out("sweep2", "summary.csv").read_bytes() == summary
