import json

import pytest

from kldro import experiments
from kldro.cli import main


def write_config(path, **overrides):
    raw = dict(
        h=1, w=2, d=6, alpha=0.05, n0=3, seed=5,
        nominal="shifted-binomial", sample_sizes="uniform",
        t_min=4, delta=2, sweep="delta", grid=[0, 2],
        rules=["dro", "hoeffding"],
    )
    raw.update(overrides)
    path.write_text(json.dumps(raw))
    return path


class TestRun:
    def test_success_and_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        assert (out / "aggregates.csv").exists()
        stdout = capsys.readouterr().out
        assert "mean_rho" in stdout

    def test_missing_config_is_validation_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["run", "--config", str(missing)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read config: [Errno 2] No such file or directory: '{missing}'\n")

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"h": 1,\n  "w": }')
        assert main(["run", "--config", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: malformed config {bad}: line 2: Expecting value\n"

    @pytest.mark.parametrize("text", ["[1]", '"abc"', "3", "null"])
    def test_config_that_is_not_a_json_object_is_a_validation_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["run", "--config", str(bad), "--set", "n0=2"]) == 1
        assert capsys.readouterr().err == "error: invalid config: config must be a JSON object\n"

    def test_unknown_override_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        for item in ("bogus=1", "redraw_nominal=true", "enumeration_cap=0", "radius_override=0",
                     "epsilon_override=0"):
            assert main(["run", "--config", str(cfg), "--set", item]) == 1
            assert capsys.readouterr().err.startswith("error: invalid config: unknown config keys")
        old = write_config(tmp_path / "old.json", mad_center="mean")
        assert main(["run", "--config", str(old)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid config: unknown config keys")

    def test_type_checked_override(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["run", "--config", str(cfg), "--set", "n0=notanint"]) == 1

    def test_override_applies(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(cfg), "--out", str(out),
            "--set", "n0=2", "--set", "grid=0", "--set", "rules=dro",
            "--set", "sigma=null",
        ])
        assert code == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2  # header + n0 * |rules| * |grid|

    @pytest.mark.parametrize("overrides", [
        ["d=0"], ["t_min=0"], ["h=0"], ["grid=-3"], ["sigma=0"],
        ["sweep=t_min", "grid=0"], ["sweep=t_min", "grid=5.5"],
        ["radius_override=-1"], ["redraw_nominal=true"], ["epsilon_override=nan"],
        ["--threads=0"], ["--threads=-5"],
        ["seed=-1"], ["seed=18446744073709551616"], ["rules=dro,dro"],
        ["alpha=1"], ["n0=0"],
        ["rules=dro,dro1", "h=10", "w=4"], ["alpha=5e-324"],
        ["sigma=1e20"], ["nominal=discretized-normal", "sweep=sigma", "grid=1e20"],
    ])
    def test_bad_sweep_inputs_fail_before_any_replicate(self, tmp_path, capsys, monkeypatch,
                                                        overrides):
        """Each input is a ``--set`` item, or a flag when it starts with ``--``."""
        def refuse(*args):
            raise AssertionError("a block of replicates ran")

        monkeypatch.setattr(experiments, "_run_block", refuse)
        cfg = write_config(tmp_path / "cfg.json")
        args = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        flags = [item if item.startswith("--") else f"--set={item}" for item in overrides]
        assert main(args + flags) == 1
        err = capsys.readouterr().err
        if flags[0].startswith("--threads="):
            workers = flags[0].removeprefix("--threads=")
            assert err == f"error: workers must be >= 1, got {workers}\n"
        else:
            assert err.startswith("error: invalid config: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        # nominal means all equal in some rows: tiny sigma on two points
        # puts each arc's mass on one point, and both arcs often agree
        ["h=1", "w=1", "d=2", "nominal=discretized-normal", "sigma=0.01",
         "sample_sizes=binomial2"],
        ["sample_sizes=binomial1", "d=1"], ["sample_sizes=binomial2", "d=1"],
    ])
    def test_edge_inputs_run(self, tmp_path, overrides):
        cfg = write_config(tmp_path / "cfg.json")
        args = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(args + [f"--set={item}" for item in overrides]) == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_same_seed_reproduces_files_byte_for_byte(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a), "--set", "seed=42"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b), "--set", "seed=42"]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "aggregates.csv").read_bytes() == (b / "aggregates.csv").read_bytes()


class TestWorstcase:
    def test_zero_radius(self, capsys):
        assert main(["worstcase", "--z", "1,2", "--q", "0.5,0.5", "--r", "0"]) == 0
        assert "1.5" in capsys.readouterr().out

    def test_worked_radius(self, capsys):
        assert main(["worstcase", "--z", "1,2", "--q", "0.5,0.5", "--r", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "1.71287863" in out
        assert "worst-case pmf" in out

    def test_invalid_pmf(self, capsys):
        assert main(["worstcase", "--z", "1,2", "--q", "0.5,0.6", "--r", "0.1"]) == 1
        assert capsys.readouterr().err == "error: probabilities sum to 1.1, not 1\n"
        assert main(["worstcase", "--z", "1,2", "--q", "nan,nan", "--r", "0.1"]) == 1

    def test_negative_radius(self, capsys):
        assert main(["worstcase", "--z", "1,2", "--q", "0.5,0.5", "--r", "-1"]) == 1
        assert capsys.readouterr().err == "error: --r must be nonnegative\n"
        assert main(["worstcase", "--z", "1,2", "--q", "0.5,0.5", "--r", "nan"]) == 1
        assert capsys.readouterr().err == "error: --r must be nonnegative\n"

    @pytest.mark.parametrize("z", ["1,inf", "-inf,1", "1,nan"])
    def test_non_finite_support_point(self, capsys, z):
        assert main(["worstcase", f"--z={z}", "--q", "0.5,0.5", "--r", "0.1"]) == 1
        assert capsys.readouterr().err == "error: support points must be finite\n"


class TestRadius:
    def test_paper_scale_inputs(self, capsys):
        code = main(["radius", "--T", "25", "--d", "50", "--A", "104", "--alpha-a", "0.0005"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "baseline: 7.006004810390302",
            "agrawal:  3.2631329333628076",
            "mardia:   1.049465428843896",
            "minimum:  1.049465428843896 (mardia)",
        ]

    def test_degenerate_support_notes_inapplicable_bounds(self, capsys):
        assert main(["radius", "--T", "25", "--d", "1", "--A", "10", "--alpha-a", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "n/a" in out
        assert "(baseline)" in out

    def test_single_sample_notes_mardia_inapplicable(self, capsys):
        assert main(["radius", "--T", "1", "--d", "2", "--A", "1", "--alpha-a", "0.05"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("agrawal:  ") and lines[2] == "mardia:   n/a (needs T >= 2)"

    @pytest.mark.parametrize("flag, value", [
        ("--T", "0"), ("--d", "0"), ("--A", "0"),
        ("--alpha-a", "0"), ("--alpha-a", "1.5"), ("--alpha-a", "nan"),
    ])
    def test_invalid_input_is_a_one_line_validation_error(self, capsys, flag, value):
        args = {"--T": "25", "--d": "5", "--A": "10", "--alpha-a": "0.05", flag: value}
        assert main(["radius", *(x for item in args.items() for x in item)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_alpha_out_of_range(self, capsys):
        assert main(["radius", "--T", "25", "--d", "5", "--A", "10", "--alpha-a", "1.5"]) == 1
        assert capsys.readouterr().err == "error: alpha must lie in (0, 1)\n"

    def test_help_lists_no_t_min(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["radius", "--help"])
        assert exit_info.value.code == 0
        assert "--T-min" not in capsys.readouterr().out


class TestGraph:
    def test_stdout_dump(self, capsys):
        assert main(["graph", "--layers", "1", "--width", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "1 2"
        assert len(lines) == 5

    def test_file_dump(self, tmp_path):
        target = tmp_path / "g.txt"
        assert main(["graph", "--layers", "2", "--width", "3", "--out", str(target)]) == 0
        assert target.read_text().splitlines()[0] == "2 3"

    def test_invalid_dimensions(self, capsys):
        assert main(["graph", "--layers", "0", "--width", "2"]) == 1
        assert capsys.readouterr().err == "error: h and w must be >= 1\n"
