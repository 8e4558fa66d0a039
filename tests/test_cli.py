import json

import numpy as np
import pytest

from xfwi.cli import DEFAULT_CONFIG, _toy_config, main, write_csv
from xfwi.formulations import IDENTITY_MAX_N
from xfwi.toy import estimate_extended_source

SMALL_TOY = {
    "toy": {
        "nt": 160,
        "dt": 0.008,
        "f0": 8.0,
        "t0": 0.2,
        "scan": [1.5, 2.5, 21],
    }
}

SMALL_EQUIV = {"equiv": {"instances": 5, "n": 10, "receivers": [2, 5, 8]}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigHandling:
    def test_unknown_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"nope": {}})
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown config section" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"toy": {"velocity": 2.0}})
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_degenerate_weights(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"equiv": {"sigma_m": 0.0, "sigma_p": 0.0}})
        assert main(["equiv-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "degenerate weights" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["scan", "--config", missing, "--out", str(tmp_path / "o")]) == 2

    def test_config_path_is_directory(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["scan", "--config", str(tmp_path), "--out", out]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"toy": {"wavelet": "r\xe9"}}')
        assert main(["scan", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 2

    @pytest.mark.parametrize(
        "command, regime", [("scan", "general"), ("equiv-check", "extended")]
    )
    def test_regime_only_on_extsrc(self, tmp_path, command, regime):
        out = str(tmp_path / "o")
        assert main([command, "--regime", regime, "--out", out]) == 2

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("scan", {"toy": {"nt": 1}}),
            ("scan", {"toy": {"nt": "abc"}}),
            ("grad-check", {"grad": {"n": 2}}),
            ("grad-check", {"grad": {"n": 0}}),
            ("equiv-check", {"equiv": {"n": 2}}),
            ("equiv-check", {"equiv": {"receivers": [30]}}),
            ("equiv-check", {"equiv": {"instances": "x"}}),
            ("grad-check", {"grad": {"sigma_m_rel": "x"}}),
            ("grad-check", {"grad": {"fd_step": "x"}}),
            ("grad-check", {"grad": {"data": "bogus"}}),
            ("scan", {"toy": {"sigma_m": float("inf")}}),
            ("scan", {"toy": {"sigma_m": float("nan")}}),
            ("scan", {"toy": {"c_true": float("inf")}}),
            ("scan", {"toy": {"sigma_p": float("nan")}}),
            ("scan", {"toy": {"floor": float("inf")}}),
            ("scan", {"toy": {"t0": float("inf")}}),
            ("scan", {"toy": {"receiver_distances": [0.8, 1.0, float("inf")]}}),
            ("scan", {"toy": {"nt": float("inf")}}),
            ("equiv-check", {"equiv": {"n": float("inf")}}),
            ("grad-check", {"grad": {"n": float("inf")}}),
        ],
        ids=[
            "toy-nt-1",
            "toy-nt-abc",
            "grad-n-2",
            "grad-n-0",
            "equiv-n-2",
            "equiv-receiver-out-of-range",
            "equiv-instances-x",
            "grad-sigma_m_rel-x",
            "grad-fd_step-x",
            "grad-data-bogus",
            "toy-sigma_m-inf",
            "toy-sigma_m-nan",
            "toy-c_true-inf",
            "toy-sigma_p-nan",
            "toy-floor-inf",
            "toy-t0-inf",
            "toy-distance-inf",
            "toy-nt-inf",
            "equiv-n-inf",
            "grad-n-inf",
        ],
    )
    def test_rejected_config_value(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1.0", "0.0", '"nan"', "1e400"])
    @pytest.mark.parametrize("key", ["sigma_m", "sigma_p"])
    def test_equiv_weight_must_be_positive_and_finite(self, tmp_path, capsys, key, value):
        # -1.0 would otherwise run as +1.0: the covariance squares its scale
        path = tmp_path / "config.json"
        path.write_text(f'{{"equiv": {{"{key}": {value}}}}}')
        out = tmp_path / "o"
        assert main(["equiv-check", "--config", str(path), "--out", str(out)]) == 2
        assert f"equiv.{key} must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_equiv_n_above_identity_limit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"equiv": {"n": IDENTITY_MAX_N + 1, "instances": 1}})
        out = tmp_path / "o"
        assert main(["equiv-check", "--config", cfg, "--out", str(out)]) == 2
        assert f"equiv.n must be at most {IDENTITY_MAX_N}" in capsys.readouterr().err
        assert not out.exists()

    def test_equiv_n_at_identity_limit_runs(self, tmp_path):
        cfg = write_config(tmp_path, {"equiv": {"n": IDENTITY_MAX_N, "instances": 1}})
        assert main(["equiv-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "argv, payload, code",
        [
            (["scan"], {"toy": {"nt": 1}}, 2),
            (
                ["extsrc", "--regime", "general"],
                {"toy": {**SMALL_TOY["toy"], "sigma_m": 0.0}},
                1,
            ),
        ],
        ids=["config-error", "check-failed"],
    )
    def test_failed_command_leaves_error_manifest(self, tmp_path, argv, payload, code):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main([*argv, "--config", cfg, "--out", str(out)]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"


class TestEquivCheck:
    def test_small_run_passes(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_EQUIV)
        out = tmp_path / "out"
        assert main(["equiv-check", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "equivalence.csv")
        assert header == [
            "instance_id",
            "phi_joint",
            "phi_reduced",
            "rel_gap",
            "identity_max_err",
        ]
        assert len(rows) == 5
        assert all(float(r[3]) <= 1e-10 for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "equiv-check"
        assert manifest["status"] == "ok"
        assert manifest["tool_version"]
        assert len(manifest["config_digest"]) == 64

    def test_consistent_instance_is_zero(self, tmp_path):
        payload = {
            "equiv": {
                "instances": 1,
                "n": 10,
                "receivers": [2, 5, 8],
                "data": "consistent",
            }
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["equiv-check", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "equivalence.csv")
        assert float(rows[0][1]) <= 1e-18
        assert float(rows[0][2]) <= 1e-18


class TestGradCheck:
    def test_small_run_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"grad": {"n": 10}})
        out = tmp_path / "out"
        assert main(["grad-check", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "gradient.csv")
        assert header == [
            "component_k",
            "analytic",
            "fd_central",
            "rel_err",
            "paper_variant",
            "paper_variant_rel_err",
        ]
        assert len(rows) == 10
        assert all(float(r[3]) <= 1e-4 for r in rows)

    def test_n100_seed2_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"grad": {"n": 100}})
        out = tmp_path / "out"
        assert main(["grad-check", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0

    @pytest.mark.parametrize("seed", [12, 42])
    def test_n100_passes_with_a_small_component(self, tmp_path, seed):
        # Component k = 1 is ~1e-7 against max|g| ~ 1.6e-3. Differences at a
        # step of 1e-4 missed it by 1.6e-4 (seed 12) and 1.0e-4 (seed 42),
        # from rounding in phi; at the default step of 1e-3, by 1.4e-5 and 6.3e-6
        cfg = write_config(tmp_path, {"grad": {"n": 100}})
        out = tmp_path / "out"
        assert main(["grad-check", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0

    def test_consistent_data_gradient_vanishes(self, tmp_path):
        cfg = write_config(tmp_path, {"grad": {"n": 10, "data": "consistent"}})
        out = tmp_path / "out"
        assert main(["grad-check", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "gradient.csv")
        analytic = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(analytic)) <= 1e-12


class TestKernelCommand:
    def test_panels_and_peaks(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_TOY)
        out = tmp_path / "out"
        assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
        panel_files = sorted(out.glob("kernel_??.csv"))
        assert len(panel_files) == 9
        header, rows = read_csv(out / "kernel_peaks.csv")
        assert header == ["i", "j", "expected_lag", "measured_lag", "abs_delta"]
        assert len(rows) == 9
        dt = SMALL_TOY["toy"]["dt"]
        for i, j, expected, measured, delta in rows:
            assert float(delta) <= dt
            if (i, j) == ("1", "3"):
                assert float(expected) == pytest.approx(-0.2)
            if (i, j) == ("3", "1"):
                assert float(expected) == pytest.approx(0.2)
            if i == j:
                assert float(expected) == 0.0


class TestScanCommand:
    def test_outputs_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_TOY)
        out = tmp_path / "out"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "scan.csv")
        assert header == [
            "c",
            "phi_conventional_norm",
            "phi_extended_norm",
            "phi_conventional_raw",
            "phi_extended_raw",
            "status",
        ]
        assert len(rows) == 21
        assert all(r[5] == "ok" for r in rows)
        summary = json.loads((out / "scan_summary.json").read_text())
        assert summary["argmin"]["conventional"] == pytest.approx(2.0)
        assert summary["argmin"]["extended"] == pytest.approx(2.0)
        widths = summary["basin_width_half_max"]
        assert widths["extended"] > widths["conventional"]

    def test_zero_measurement_weight_fails_every_point(self, tmp_path):
        # sigma_m = 0 leaves the conventional misfit undefined: every point
        # gets a named status instead of a value, and the command exits 1.
        toy = {**SMALL_TOY["toy"], "sigma_m": 0.0}
        cfg = write_config(tmp_path, {"toy": toy})
        out = tmp_path / "out"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 1
        _, rows = read_csv(out / "scan.csv")
        assert all(r[5] == "DegenerateWeightsError/ok" for r in rows)
        assert all(r[3] == "nan" for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_TOY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["scan", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
        assert main(["scan", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
        assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()


class TestExtsrcCommand:
    def test_true_velocity_extension_vanishes(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_TOY)
        out = tmp_path / "out"
        assert main(
            ["extsrc", "--config", cfg, "--out", str(out), "--c", "2.0"]
        ) == 0
        header, rows = read_csv(out / "extsrc_c2.csv")
        assert header == ["t", "q", "f", "q_plus_f"]
        f = np.array([float(r[2]) for r in rows])
        q = np.array([float(r[1]) for r in rows])
        assert np.linalg.norm(f) <= 1e-8 * np.linalg.norm(q)

    def test_default_velocities_and_data_files(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_TOY)
        out = tmp_path / "out"
        assert main(["extsrc", "--config", cfg, "--out", str(out)]) == 0
        for c in ("1.8", "2.2"):
            assert (out / f"extsrc_c{c}.csv").exists()
            header, rows = read_csv(out / f"extdata_c{c}.csv")
            assert header == ["t", "receiver_id", "observed", "clean_model", "fitted"]
            assert len(rows) == 3 * SMALL_TOY["toy"]["nt"]

    @pytest.mark.parametrize("c", ["-1", "0", "nan", "inf"])
    def test_bad_velocity_is_usage_error(self, tmp_path, c):
        out = tmp_path / "out"
        assert main(["extsrc", f"--c={c}", "--out", str(out)]) == 2
        assert not out.exists()

    def test_zero_measurement_weight_exits_1(self, tmp_path):
        toy = {**SMALL_TOY["toy"], "sigma_m": 0.0}
        cfg = write_config(tmp_path, {"toy": toy})
        out = tmp_path / "out"
        assert main(
            ["extsrc", "--config", cfg, "--out", str(out), "--regime", "general"]
        ) == 1

    def test_conventional_regime_flag(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_TOY)
        out = tmp_path / "out"
        assert main(
            [
                "extsrc",
                "--config",
                cfg,
                "--out",
                str(out),
                "--c",
                "1.8",
                "--regime",
                "conventional",
            ]
        ) == 0
        _, rows = read_csv(out / "extsrc_c1.8.csv")
        f = np.array([float(r[2]) for r in rows])
        q = np.array([float(r[1]) for r in rows])
        assert np.linalg.norm(f) <= 1e-8 * np.linalg.norm(q)


def reference_csv(header, rows):
    """Row-by-row formatter the column writer must reproduce byte for byte."""

    def fmt(v):
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.17g}"
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    def test_matches_row_formatter(self, tmp_path):
        flags = [True, False, True, False]
        py_ints = [0, -7, 2**40, 12]
        np_ints = np.array([3, -1, 0, 9], dtype=np.int64)
        floats = np.array([0.1, 1.0 / 3.0, -2.5e-300, 6.02214076e23])
        special = np.array([np.nan, np.inf, -np.inf, -0.0])
        status = ["ok", "IllConditionedError", "ok/DegenerateWeightsError", "x"]
        columns = [flags, py_ints, np_ints, floats, special, status]
        header = ["b", "i", "k", "x", "y", "status"]
        write_csv(tmp_path / "t.csv", header, columns)
        expected = reference_csv(header, zip(*columns))
        assert (tmp_path / "t.csv").read_text() == expected
        assert "1,0,3,0.10000000000000001,nan,ok\n" in expected
        assert ",-0,x\n" in expected

    def test_zero_rows_is_header_only(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.array([]), []])
        assert (tmp_path / "t.csv").read_text() == "a,b\n"

    def test_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1]])

    def test_extdata_rows_are_receiver_major(self, tmp_path):
        toy = {**SMALL_TOY["toy"], "nt": 48, "receiver_distances": [0.9, 1.1]}
        cfg = write_config(tmp_path, {"toy": toy})
        out = tmp_path / "out"
        assert main(["extsrc", "--config", cfg, "--out", str(out), "--c", "1.8"]) == 0
        toy_cfg = _toy_config({"toy": {**DEFAULT_CONFIG["toy"], **toy}})
        res = estimate_extended_source(toy_cfg, 1.8)
        times = np.arange(toy_cfg.nt) * toy_cfg.dt
        rows = [
            (times[k], i + 1, res.observed.values[i, k], res.clean.values[i, k],
             res.fitted.values[i, k])
            for i in range(2)
            for k in range(toy_cfg.nt)
        ]
        header = ["t", "receiver_id", "observed", "clean_model", "fitted"]
        assert (out / "extdata_c1.8.csv").read_text() == reference_csv(header, rows)
