"""Command-line interface, exercised in process through main(argv)."""
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mcstop import ChainMatrix, load_chain, min_ess
import mcstop.cli as cli
from mcstop.cli import main
from mcstop.errors import ParseError


def _write_chain(tmp_path, data, name="chain.csv"):
    path = tmp_path / name
    lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(data)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEssCommand:
    def test_threshold_only(self, capsys):
        code, out, _ = _run(
            capsys, ["ess", "-p", "5", "--alpha", "0.05", "--eps", "0.05"]
        )
        assert code == 0
        assert "8605" in out

    def test_threshold_only_json(self, capsys):
        code, out, _ = _run(capsys, ["ess", "-p", "5", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["min_ess_ceiling"] == 8605
        assert payload["min_ess"] == min_ess(5, 0.05, 0.05)

    def test_no_input_no_dims(self, capsys):
        code, _, err = _run(capsys, ["ess"])
        assert code == 1
        assert "error" in err

    def test_iid_file_report(self, capsys, tmp_path, rng):
        data = rng.standard_normal((10**4, 3))
        path = _write_chain(tmp_path, data)
        code, out, _ = _run(capsys, ["ess", path])
        assert code == 0
        assert "multivariate ESS" in out
        ess_line = next(l for l in out.splitlines() if "multivariate" in l)
        val = float(ess_line.split(":")[1])
        assert abs(val - 10**4) < 0.10 * 10**4

    def test_json_matches_library_bitwise(self, capsys, tmp_path, rng):
        from mcstop import (
            BatchPolicy,
            batch_size,
            mbm,
            multivariate_ess,
            sample_covariance,
        )

        data = rng.standard_normal((2000, 2))
        path = _write_chain(tmp_path, data)
        code, out, _ = _run(capsys, ["ess", path, "--json"])
        assert code == 0
        payload = json.loads(out)
        chain = load_chain(path, format="csv")
        b = batch_size(chain.n, BatchPolicy.exponent(0.5))
        expected = multivariate_ess(
            sample_covariance(chain), mbm(chain, b), chain.n
        )
        assert payload["ess_multivariate"] == expected
        assert payload["batch_size"] == b
        assert payload["verdict"] == (expected >= payload["min_ess"])

    def test_one_batch_means_estimate_per_run(self, capsys, tmp_path, rng, monkeypatch):
        import mcstop.estimators as estimators

        real = estimators.mbm
        calls = []

        def spy(*args):
            calls.append(args[1])
            return real(*args)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("mcstop")
                    and getattr(mod, "mbm", None) is real):
                monkeypatch.setattr(mod, "mbm", spy)
        path = _write_chain(tmp_path, rng.standard_normal((2000, 3)))
        code, out, _ = _run(capsys, ["ess", path, "--json"])
        assert code == 0
        assert calls == [json.loads(out)["batch_size"]]

    def test_dims_mismatch(self, capsys, tmp_path, rng):
        path = _write_chain(tmp_path, rng.standard_normal((100, 2)))
        code, _, err = _run(capsys, ["ess", path, "-p", "3"])
        assert code == 1
        assert "disagrees" in err

    def test_too_few_rows_numeric_failure(self, capsys, tmp_path, rng):
        path = _write_chain(tmp_path, rng.standard_normal((3, 5)))
        code, _, err = _run(capsys, ["ess", path])
        assert code == 2
        assert "positive definite" in err

    def test_non_utf8_file_is_a_user_error(self, capsys, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_bytes(b"1,2\n\xff,4\n")
        code, out, err = _run(capsys, ["ess", str(path)])
        assert (code, out) == (1, "")
        assert err == "mcstop: error: byte 0xff at line 2 is not UTF-8 text\n"

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, ["ess", "/nonexistent/chain.csv"])
        assert code == 1


class TestConfregionCommand:
    def test_p1_matches_library(self, capsys, tmp_path, rng):
        from mcstop import (
            BatchPolicy,
            batch_size,
            column_means,
            hotelling_cutoff,
            mbm,
        )

        data = rng.standard_normal((900, 1)) * 2.0 + 1.0
        path = _write_chain(tmp_path, data)
        code, out, _ = _run(capsys, ["confregion", path, "--json"])
        assert code == 0
        payload = json.loads(out)
        chain = load_chain(path, format="csv")
        b = batch_size(900, BatchPolicy.exponent(0.5))
        sig = mbm(chain, b)
        assert payload["cutoff"] == hotelling_cutoff(0.05, 1, sig.a_n)
        assert payload["center"][0] == float(column_means(chain).values[0])
        # p = 1 volume: twice the t half-width
        width = 2.0 * math.sqrt(sig.matrix[0, 0] * payload["cutoff"] / 900)
        assert payload["vol_p"] == pytest.approx(width, rel=1e-12)

    def test_text_has_center(self, capsys, tmp_path, rng):
        path = _write_chain(tmp_path, rng.standard_normal((500, 2)))
        code, out, _ = _run(capsys, ["confregion", path])
        assert code == 0
        assert any(l.startswith("center:") for l in out.splitlines())
        assert any(l.startswith("Vol^(1/p):") for l in out.splitlines())

    def test_ellipse_out_row_count(self, capsys, tmp_path, rng):
        path = _write_chain(tmp_path, rng.standard_normal((800, 3)))
        out_path = tmp_path / "boundary.csv"
        code, out, _ = _run(
            capsys,
            ["confregion", path, "--ellipse", "0", "2",
             "--resolution", "48", "--ellipse-out", str(out_path)],
        )
        assert code == 0
        rows = out_path.read_text().strip().splitlines()
        assert len(rows) == 48
        first = [float(v) for v in rows[0].split(",")]
        assert len(first) == 2

    def test_ellipse_stdout_and_json_count(self, capsys, tmp_path, rng):
        path = _write_chain(tmp_path, rng.standard_normal((800, 2)))
        code, out, _ = _run(
            capsys,
            ["confregion", path, "--ellipse", "0", "1",
             "--resolution", "40", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ellipse"] == {"i": 0, "j": 1, "rows": 40}

    def test_scheffe_directions(self, capsys, tmp_path, rng):
        from mcstop import (
            BatchPolicy,
            batch_size,
            column_means,
            make_region,
            mbm,
            scheffe_interval,
        )

        data = rng.standard_normal((600, 2))
        path = _write_chain(tmp_path, data)
        dirs = np.array([[1.0, 0.0], [1.0, -1.0]])
        dpath = _write_chain(tmp_path, dirs, name="dirs.csv")
        code, out, _ = _run(
            capsys, ["confregion", path, "--directions", dpath, "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        chain = load_chain(path, format="csv")
        b = batch_size(600, BatchPolicy.exponent(0.5))
        region = make_region(column_means(chain), mbm(chain, b), 600, 0.05)
        for k, entry in enumerate(payload["scheffe"]):
            lo, hi = scheffe_interval(dirs[k], region)
            assert entry["lo"] == lo
            assert entry["hi"] == hi

    def test_insufficient_rows(self, capsys, tmp_path, rng):
        path = _write_chain(tmp_path, rng.standard_normal((4, 4)))
        code, _, err = _run(capsys, ["confregion", path])
        assert code == 2


class TestStopCommand:
    def test_model_run_terminates(self, capsys):
        code, out, _ = _run(
            capsys,
            ["stop", "--model", "iid:p=2", "--seed", "3",
             "--eps", "0.3", "--alpha", "0.10", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terminated"] is True
        assert payload["reason"] == "criterion_met"
        assert payload["n_final"] >= 2
        assert payload["model"] == "iid:p=2"

    def test_nmax_exhaustion_exit_2(self, capsys):
        code, out, err = _run(
            capsys,
            ["stop", "--model", "iid:p=2", "--seed", "3",
             "--eps", "0.001", "--nstar", "100", "--nmax", "500"],
        )
        assert code == 2
        assert "n_max_reached" in out

    def test_model_needs_seed(self, capsys):
        code, _, err = _run(
            capsys, ["stop", "--model", "iid:p=2", "--eps", "0.1"]
        )
        assert code == 1
        assert "--seed" in err

    def test_model_and_input_exclusive(self, capsys, tmp_path, rng):
        path = _write_chain(tmp_path, rng.standard_normal((50, 2)))
        code, _, err = _run(
            capsys,
            ["stop", "--model", "iid:p=2", "--seed", "1",
             "--input", path, "--eps", "0.1"],
        )
        assert code == 1

    def test_needs_model_or_input(self, capsys):
        code, _, err = _run(capsys, ["stop", "--eps", "0.1"])
        assert code == 1

    def test_input_needs_resume(self, capsys, tmp_path, rng):
        path = _write_chain(tmp_path, rng.standard_normal((50, 2)))
        code, _, err = _run(capsys, ["stop", "--input", path, "--eps", "0.1"])
        assert code == 1
        assert "--resume" in err

    def test_missing_eps(self, capsys):
        code, _, err = _run(capsys, ["stop", "--model", "iid:p=2", "--seed", "1"])
        assert code == 1
        assert "--eps" in err


class TestStopResumeProtocol:
    def _chain_rows(self, n, seed=424):
        return np.random.default_rng(seed).standard_normal((n, 2))

    def test_full_cycle(self, capsys, tmp_path):
        rows = self._chain_rows(2000)
        path = tmp_path / "grown.csv"
        state = tmp_path / "state.json"

        def write_prefix(k):
            lines = [",".join(repr(float(v)) for v in r) for r in rows[:k]]
            path.write_text("\n".join(lines) + "\n")

        # phase 1: too little data, protocol asks for more
        write_prefix(100)
        code, out, _ = _run(
            capsys,
            ["stop", "--input", str(path), "--resume", str(state),
             "--eps", "0.3", "--alpha", "0.05", "--nstar", "50", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "continue"
        assert payload["next_checkpoint"] > 100
        st = json.loads(state.read_text())
        assert st["done"] is False
        assert st["epsilon"] == 0.3
        first_cp = st["next_checkpoint"]

        # phase 2: epsilon conflict is refused
        code, _, err = _run(
            capsys,
            ["stop", "--input", str(path), "--resume", str(state),
             "--eps", "0.1"],
        )
        assert code == 1
        assert "epsilon" in err

        # phase 3: extend the chain, resume without re-specifying the rule
        write_prefix(2000)
        code, out, _ = _run(
            capsys,
            ["stop", "--input", str(path), "--resume", str(state), "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reason"] == "criterion_met"
        assert payload["terminated"] is True
        assert payload["n_final"] >= first_cp
        st = json.loads(state.read_text())
        assert st["done"] is True

        # phase 4: finished state short-circuits
        code, out, err = _run(
            capsys,
            ["stop", "--input", str(path), "--resume", str(state), "--json"],
        )
        assert code == 0
        assert "finished" in err

    def test_state_checkpoint_is_stable(self, capsys, tmp_path):
        # rerunning with unchanged data must not advance the grid
        rows = self._chain_rows(80, seed=99)
        path = _write_chain(tmp_path, rows, name="grown.csv")
        state = tmp_path / "state.json"
        argv = ["stop", "--input", path, "--resume", str(state),
                "--eps", "0.05", "--nstar", "60"]
        code, _, _ = _run(capsys, argv)
        assert code == 0
        cp1 = json.loads(state.read_text())["next_checkpoint"]
        code, _, _ = _run(capsys, ["stop", "--input", path,
                                   "--resume", str(state)])
        assert code == 0
        cp2 = json.loads(state.read_text())["next_checkpoint"]
        assert cp1 == cp2

    def test_corrupt_state_rejected(self, capsys, tmp_path):
        rows = self._chain_rows(50, seed=5)
        path = _write_chain(tmp_path, rows, name="grown.csv")
        state = tmp_path / "state.json"
        state.write_text('{"epsilon": 0.1}\n')
        code, _, err = _run(
            capsys, ["stop", "--input", path, "--resume", str(state)]
        )
        assert code == 1
        assert "missing key" in err

    @pytest.mark.parametrize("text", [b"{not json", b"[1, 2]\n", b"\xff{}"])
    def test_state_that_is_not_a_json_object_rejected(self, capsys, tmp_path, text):
        rows = self._chain_rows(50, seed=5)
        path = _write_chain(tmp_path, rows, name="grown.csv")
        state = tmp_path / "state.json"
        state.write_bytes(text)
        code, out, err = _run(
            capsys, ["stop", "--input", path, "--resume", str(state)]
        )
        assert (code, out) == (1, "")
        assert err.startswith("mcstop: error: state file ")
        assert err.endswith("delete it to start over\n") and err.count("\n") == 1
        assert state.read_bytes() == text


class TestReplicateCommand:
    CONFIG = (
        "study = coverage\n"
        "model = iid:p=2\n"
        "mode = fixed\n"
        "fixed_n = 300\n"
        "replications = 3\n"
        "alpha = 0.10\n"
        "seed_base = 0\n"
    )

    def test_runs_and_writes_outputs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "tiny.conf"
        cfg.write_text(self.CONFIG)
        code, out, _ = _run(capsys, ["replicate", str(cfg)])
        assert code == 0
        assert (tmp_path / "tiny.csv").exists()
        assert (tmp_path / "tiny.json").exists()
        assert "coverage" in out
        assert "rows -> tiny.csv" in out
        payload = json.loads((tmp_path / "tiny.json").read_text())
        assert payload["groups"][0]["count"] == 3

    def test_out_prefix(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "tiny.conf"
        cfg.write_text(self.CONFIG)
        code, _, _ = _run(
            capsys, ["replicate", str(cfg), "--out-prefix", "results/run1"]
        )
        # the prefix directory must already exist; missing dir is a
        # user error, not a crash
        assert code == 1

        (tmp_path / "results").mkdir()
        code, _, _ = _run(
            capsys, ["replicate", str(cfg), "--out-prefix", "results/run1"]
        )
        assert code == 0
        assert (tmp_path / "results" / "run1.csv").exists()

    def test_unknown_key_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text(self.CONFIG + "bogus = 1\n")
        code, _, err = _run(capsys, ["replicate", str(cfg)])
        assert code == 1
        assert "bogus" in err

    def test_json_flag_prints_summary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "tiny.conf"
        cfg.write_text(self.CONFIG)
        code, out, _ = _run(capsys, ["replicate", str(cfg), "--json"])
        assert code == 0
        start = out.index("{")
        payload = json.loads(out[start:])
        assert payload["study"] == "coverage"


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nosuch"])
        assert exc.value.code == 1

    def test_missing_required_positional(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["confregion"])
        assert exc.value.code == 1

    def test_bad_choice(self, capsys, tmp_path, rng):
        path = _write_chain(tmp_path, rng.standard_normal((10, 2)))
        with pytest.raises(SystemExit) as exc:
            main(["ess", path, "--format", "xml"])
        assert exc.value.code == 1

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


class TestConsoleScript:
    def test_entry_point_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from mcstop.cli import main; sys.exit(main(sys.argv[1:]))",
             "ess", "-p", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "8605" in proc.stdout


class TestResumeSafety:
    FLAGS = ["--eps", "0.05", "--alpha", "0.10", "--nstar", "60", "--json"]

    def _first_call(self, capsys, tmp_path, n=80):
        rows = np.random.default_rng(7).standard_normal((n, 2))
        path = _write_chain(tmp_path, rows, name="grown.csv")
        state = tmp_path / "state.json"
        code, _, _ = _run(capsys, ["stop", "--input", path, "--resume", str(state)]
                          + self.FLAGS)
        assert code == 0
        return path, state

    def test_failed_state_write_keeps_old_state(self, capsys, tmp_path, monkeypatch):
        path, state = self._first_call(capsys, tmp_path)
        before = state.read_text()
        import mcstop.cli as cli

        def torn_dump(obj, fh, **kw):
            fh.write('{"epsilon": 0.0')
            raise OSError("disk full")

        monkeypatch.setattr(cli.json, "dump", torn_dump)
        with pytest.raises(OSError):
            main(["stop", "--input", path, "--resume", str(state)])
        monkeypatch.undo()
        assert state.read_text() == before
        assert json.loads(before)["next_checkpoint"] > 80
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "grown.csv", "state.json", "state.json.rows.npy"]

    @pytest.mark.parametrize("flag,value,key", [
        ("--alpha", "0.05", "alpha"),
        ("--rule", "absolute", "metric"),
        ("--batch", "nu:0.4", "batch"),
        ("--growth", "0.2", "check_growth"),
        ("--nmax", "5000", "n_max"),
        ("--nstar", "70", "n_star"),
        ("--nstar", "auto", "n_star"),
    ])
    def test_conflicting_pinned_flag_rejected(self, capsys, tmp_path, flag, value, key):
        path, state = self._first_call(capsys, tmp_path)
        before = state.read_text()
        code, _, err = _run(capsys, ["stop", "--input", path, "--resume", str(state),
                                     flag, value])
        assert code == 1
        assert f"pins {key}" in err and flag in err
        assert state.read_text() == before

    def test_repeated_identical_flags_accepted(self, capsys, tmp_path):
        path, state = self._first_call(capsys, tmp_path)
        argv = ["stop", "--input", path, "--resume", str(state)] + self.FLAGS + [
            "--rule", "relative_sd", "--batch", "nu:.5", "--growth", "0.1",
            "--nmax", str(10**8)]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert json.loads(out)["status"] == "continue"

    def _walk_two_calls(self, capsys, tmp_path):
        rows = np.random.default_rng(9).standard_normal((120, 2))
        path = _write_chain(tmp_path, rows[:70], name="grown.csv")
        state = tmp_path / "state.json"
        argv = ["stop", "--input", path, "--resume", str(state)]
        for extra, n in ((self.FLAGS, 70), (["--json"], 120)):
            _write_chain(tmp_path, rows[:n], name="grown.csv")
            code, out, _ = _run(capsys, argv + extra)
            assert code == 0 and json.loads(out)["status"] == "continue"
        return rows, path, state, argv

    def test_rewritten_row_rejected(self, capsys, tmp_path):
        rows, path, state, argv = self._walk_two_calls(capsys, tmp_path)
        before = state.read_text()
        rewritten = rows.copy()
        rewritten[2] = np.random.default_rng(10).standard_normal(2)
        _write_chain(tmp_path, np.vstack([rewritten, rows[:20]]), name="grown.csv")
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert "rewritten" in err
        assert state.read_text() == before

    def test_truncated_file_rejected(self, capsys, tmp_path):
        rows, path, state, argv = self._walk_two_calls(capsys, tmp_path)
        _write_chain(tmp_path, rows[:100], name="grown.csv")
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert "truncated" in err

    def test_appended_rows_accepted(self, capsys, tmp_path):
        rows, path, state, argv = self._walk_two_calls(capsys, tmp_path)
        pin = json.loads(state.read_text())["read_prefix"]
        with open(path, "a") as fh:
            fh.write("0.5,-0.5\n")
        code, _, _ = _run(capsys, argv)
        assert code == 0
        grown = json.loads(state.read_text())["read_prefix"]
        assert grown["bytes"] == pin["bytes"] + len("0.5,-0.5\n")
        assert grown["sha256"] != pin["sha256"]

    def test_state_without_read_prefix_rejected(self, capsys, tmp_path):
        path, state = self._first_call(capsys, tmp_path)
        old = json.loads(state.read_text())
        del old["read_prefix"]
        state.write_text(json.dumps(old))
        code, _, err = _run(capsys, ["stop", "--input", path, "--resume", str(state)])
        assert code == 1
        assert "missing key 'read_prefix'" in err

    @pytest.mark.parametrize("key,value", [
        ("epsilon", "x"),
        ("alpha", None),
        ("n_star", True),
        ("metric", 3),
        ("batch", 0.5),
        ("check_growth", "0.1"),
        ("n_max", 1e8),
        ("next_checkpoint", "7"),
        ("done", "yes"),
        ("read_prefix", 5),
        ("read_prefix.bytes", "x"),
        ("read_prefix.sha256", 7),
    ])
    def test_wrong_typed_state_value_rejected(self, capsys, tmp_path, key, value):
        path, state = self._first_call(capsys, tmp_path)
        old = json.loads(state.read_text())
        *outer, last = key.split(".")
        (old[outer[0]] if outer else old)[last] = value
        state.write_text(json.dumps(old))
        cache = tmp_path / "state.json.rows.npy"
        before = state.read_bytes(), cache.read_bytes()
        code, out, err = _run(capsys, ["stop", "--input", path, "--resume", str(state)])
        assert (code, out) == (1, "")
        assert err.startswith(f"mcstop: error: state file {state} has {key} = ")
        assert err.endswith("delete it to start over\n") and err.count("\n") == 1
        assert (state.read_bytes(), cache.read_bytes()) == before

    def test_state_without_read_prefix_bytes_rejected(self, capsys, tmp_path):
        path, state = self._first_call(capsys, tmp_path)
        old = json.loads(state.read_text())
        del old["read_prefix"]["bytes"]
        state.write_text(json.dumps(old))
        code, _, err = _run(capsys, ["stop", "--input", path, "--resume", str(state)])
        assert code == 1
        assert "missing key 'read_prefix.bytes'" in err

    def test_unterminated_last_line_not_counted(self, capsys, tmp_path):
        rows = np.random.default_rng(8).standard_normal((66, 2))
        lines = [",".join(repr(float(v)) for v in r) for r in rows]
        path = tmp_path / "grown.csv"
        state = tmp_path / "state.json"
        argv = ["stop", "--input", str(path), "--resume", str(state), "--json"]
        # the 60th row is cut short mid-number, as by a writer still appending
        path.write_text("\n".join(lines[:59]) + "\n" + lines[59][:4])
        code, out, _ = _run(capsys, argv + ["--eps", "0.05", "--nstar", "60"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n_available"] == 59
        assert payload["next_checkpoint"] == 60
        # once the line is complete the checkpoint is examined
        path.write_text("\n".join(lines[:60]) + "\n" + lines[60])
        code, out, _ = _run(capsys, argv)
        payload = json.loads(out)
        assert payload["n_available"] == 60
        assert payload["next_checkpoint"] == 66


class TestResumeRowCache:
    """A resume call parses only the bytes past the pin; the row cache holds the rest."""

    FLAGS = ["--eps", "0.01", "--alpha", "0.10", "--nstar", "60", "--json"]

    @pytest.fixture
    def rows(self):
        return np.random.default_rng(31).standard_normal((400, 2))

    @staticmethod
    def _grow(path, rows, n, header="a,b\n"):
        lines = [",".join(repr(float(v)) for v in r) for r in rows[:n]]
        path.write_text(header + "\n".join(lines) + "\n")

    def _call(self, capsys, path, state, first=False):
        argv = ["stop", "--input", str(path), "--resume", str(state)]
        return _run(capsys, argv + (self.FLAGS if first else ["--json"]))

    def _walk(self, capsys, d, rows, sizes):
        """Grow d/grown.csv to each size in turn, one call each."""
        d.mkdir(exist_ok=True)
        path, state = d / "grown.csv", d / "state.json"
        outs = []
        for k, n in enumerate(sizes):
            self._grow(path, rows, n)
            outs.append(self._call(capsys, path, state, first=k == 0))
        return path, state, outs

    @staticmethod
    def _cache(state):
        return state.parent / (state.name + ".rows.npy")

    def _reference(self, capsys, monkeypatch, d, rows, sizes):
        """The same walk with every call parsing the whole file."""
        with monkeypatch.context() as m:
            m.setattr(cli, "_read_row_cache", lambda path, sha256: None)
            return self._walk(capsys, d, rows, sizes)

    def test_each_call_parses_only_new_rows(self, capsys, tmp_path, rows,
                                            monkeypatch):
        parsed = []

        def spy(name):
            real = getattr(cli, name)

            def wrapper(*a, **kw):
                out = real(*a, **kw)
                parsed.append((name, len(out.data if name == "load_chain" else out)))
                return out
            return wrapper

        monkeypatch.setattr(cli, "load_chain", spy("load_chain"))
        monkeypatch.setattr(cli, "parse_rows", spy("parse_rows"))
        _, state, outs = self._walk(capsys, tmp_path, rows, [100, 150, 150, 220])
        assert all(code == 0 for code, _, _ in outs)
        assert parsed == [("load_chain", 100), ("parse_rows", 50),
                          ("parse_rows", 0), ("parse_rows", 70)]
        pin = json.loads(state.read_text())["read_prefix"]
        assert np.load(self._cache(state)).tobytes() == rows[:220].tobytes()
        assert hashlib.sha256(self._cache(state).read_bytes()).hexdigest() \
            == pin["rows_sha256"]

    def test_twelve_call_walk_matches_full_parse(self, capsys, tmp_path, rows,
                                                 monkeypatch):
        sizes = [70 + 25 * k for k in range(12)]
        ref_path, ref_state, ref_outs = self._reference(
            capsys, monkeypatch, tmp_path / "ref", rows, sizes)
        d = tmp_path / "cached"
        d.mkdir()
        path, state = d / "grown.csv", d / "state.json"
        for k, n in enumerate(sizes):
            self._grow(path, rows, n)
            assert self._call(capsys, path, state, first=k == 0) == ref_outs[k]
        got = json.loads(state.read_text())
        assert got == json.loads(ref_state.read_text())
        assert set(got["read_prefix"]) == {"bytes", "sha256", "rows_sha256",
                                           "rows_format"}
        assert got["read_prefix"]["rows_format"] == "csv"

    @pytest.mark.parametrize("damage", ["missing", "truncated", "tampered"])
    def test_bad_cache_is_rebuilt(self, capsys, tmp_path, rows, monkeypatch,
                                  damage):
        sizes = [100, 160, 230]
        _, _, ref_outs = self._reference(capsys, monkeypatch, tmp_path / "ref",
                                         rows, sizes)
        path, state, outs = self._walk(capsys, tmp_path / "c", rows, sizes[:2])
        cache = self._cache(state)
        if damage == "missing":
            cache.unlink()
        elif damage == "truncated":
            cache.write_bytes(cache.read_bytes()[:-8])
        else:
            raw = bytearray(cache.read_bytes())
            raw[-3] ^= 1
            cache.write_bytes(bytes(raw))
        self._grow(path, rows, sizes[2])
        assert outs + [self._call(capsys, path, state)] == ref_outs
        pin = json.loads(state.read_text())["read_prefix"]["rows_sha256"]
        assert hashlib.sha256(cache.read_bytes()).hexdigest() == pin
        assert np.load(cache).tobytes() == rows[:sizes[2]].tobytes()

    def test_stale_cache_of_a_deleted_state_is_ignored(self, capsys, tmp_path, rows,
                                                       monkeypatch):
        other = np.random.default_rng(32).standard_normal((400, 2))
        _, _, ref_outs = self._reference(capsys, monkeypatch, tmp_path / "ref",
                                         other, [90, 180])
        path, state, _ = self._walk(capsys, tmp_path / "c", rows, [100, 200])
        state.unlink()
        assert self._cache(state).exists()
        _, _, outs = self._walk(capsys, tmp_path / "c", other, [90, 180])
        assert outs == ref_outs

    def test_failed_state_write_after_cache_write(self, capsys, tmp_path, rows,
                                                  monkeypatch):
        sizes = [100, 160, 230]
        _, _, ref_outs = self._reference(capsys, monkeypatch, tmp_path / "ref",
                                         rows, sizes)
        path, state, outs = self._walk(capsys, tmp_path / "c", rows, sizes[:2])
        before = state.read_bytes()
        self._grow(path, rows, sizes[2])
        with monkeypatch.context() as m:
            m.setattr(cli, "_write_state", _raise_oserror)
            with pytest.raises(OSError):
                self._call(capsys, path, state)
        assert state.read_bytes() == before
        assert np.load(self._cache(state)).shape == (sizes[2], 2)
        assert outs + [self._call(capsys, path, state)] == ref_outs

    @pytest.mark.parametrize("bad,fragment", [
        ("0.5,oops", "non-numeric cell 'oops'"),
        ("0.5", "ragged row"),
        ("0.5,1,2", "ragged row"),
        ("0.5,1e999", "not a finite double"),
        ("a,b", "non-numeric cell 'a'"),
    ])
    def test_bad_line_in_a_later_append_names_its_line(self, capsys, tmp_path, rows,
                                                       bad, fragment):
        path, state, _ = self._walk(capsys, tmp_path, rows, [100, 150])
        before = state.read_bytes(), self._cache(state).read_bytes()
        lines = [",".join(repr(float(v)) for v in r) for r in rows[:200]]
        lines[170] = bad
        path.write_text("a,b\n" + "\n".join(lines) + "\n")
        code, _, err = self._call(capsys, path, state)
        assert code == 1
        with pytest.raises(ParseError) as exc:
            load_chain(str(path))
        assert exc.value.row == 172
        assert err == f"mcstop: error: {exc.value}\n" and fragment in err
        assert (state.read_bytes(), self._cache(state).read_bytes()) == before

    def test_non_utf8_append_names_its_line(self, capsys, tmp_path, rows):
        path, state, _ = self._walk(capsys, tmp_path, rows, [100, 150])
        before = state.read_bytes(), self._cache(state).read_bytes()
        with open(path, "ab") as fh:
            fh.write(b"0.5,0.25\n0.5,\xe9\n")
        code, out, err = self._call(capsys, path, state)
        assert (code, out) == (1, "")
        with pytest.raises(ParseError) as exc:
            load_chain(str(path))
        assert exc.value.row == 153
        assert err == f"mcstop: error: {exc.value}\n"
        assert (state.read_bytes(), self._cache(state).read_bytes()) == before

    @pytest.mark.parametrize("refusal", ["rewritten", "truncated", "conflict"])
    def test_refused_call_leaves_state_and_cache(self, capsys, tmp_path, rows,
                                                 refusal):
        path, state, _ = self._walk(capsys, tmp_path, rows, [100, 150])
        before = state.read_bytes(), self._cache(state).read_bytes()
        argv = ["stop", "--input", str(path), "--resume", str(state)]
        if refusal == "rewritten":
            changed = rows.copy()
            changed[3] += 1.0
            self._grow(path, changed, 200)
        elif refusal == "truncated":
            self._grow(path, rows, 120)
        else:
            self._grow(path, rows, 200)
            argv += ["--eps", "0.2"]
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert ("pins epsilon" if refusal == "conflict" else refusal) in err
        assert (state.read_bytes(), self._cache(state).read_bytes()) == before

    @pytest.mark.parametrize("appended", [0, 30])
    def test_other_format_reparses_whole_file(self, capsys, tmp_path, rows,
                                              appended):
        path, state, _ = self._walk(capsys, tmp_path, rows, [100, 150])
        before = state.read_bytes(), self._cache(state).read_bytes()
        with open(path, "a") as fh:
            for r in rows[150:150 + appended]:
                fh.write("\t".join(repr(float(v)) for v in r) + "\n")
        code, _, err = _run(capsys, ["stop", "--input", str(path), "--resume",
                                     str(state), "--format", "tsv"])
        assert code == 1
        with pytest.raises(ParseError) as exc:
            load_chain(str(path), format="tsv")
        assert err == f"mcstop: error: {exc.value}\n"
        assert (state.read_bytes(), self._cache(state).read_bytes()) == before


def _raise_oserror(*args, **kwargs):
    raise OSError("disk full")
