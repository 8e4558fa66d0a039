import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xfwi
from conftest import fd_gradient_per_medium
from xfwi import cli
from xfwi.cli import (
    DEFAULT_CONFIG,
    ConfigError,
    _config_section,
    gradient_problem,
    main,
    make_equiv_instances,
    write_csv,
)
from xfwi.errors import RejectedInputError
from xfwi.formulations import grad_phi
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

DEFAULT_DIGEST = "403a85a54528d8506d838f0e967f37ad7d0342b481ec3861cbf13338a30c66ab"

# cli.DEFAULT_CONFIG as JSON: each section's values, and 20 against 20.0
DEFAULT_JSON = {
    "toy": '{"c_true": 2.0, "dt": 0.004, "f0": 10.0, "floor": 1e-06, "nt": 512, '
           '"receiver_distances": [0.8, 1.0, 1.2], "scan": [1.5, 2.5, 101], "sigma_m": 1.0, '
           '"sigma_p": 1.0, "t0": 0.15, "wavelet": "ricker"}',
    "equiv": '{"boundary": "sommerfeld", "data": "random", "h": 0.05, "instances": 20, '
             '"m_max": 0.4, "m_min": 0.2, "n": 20, "omega": 30.0, "receivers": [3, 9, 15], '
             '"sigma_m": 1.0, "sigma_m_kind": "dense", "sigma_p": 1.0, "sigma_p_kind": "dense"}',
    "grad": '{"boundary": "sommerfeld", "data": "perturbed", "n": 20, "omega": 6.0, '
            '"sigma_m_rel": 0.1}',
}

# A toy config whose weight ratio lam = (sigma_m / sigma_p)^2 leaves the float
# range: it underflows to 0 in the extended regime and overflows in extsrc's
# conventional one.
FLOOR_1E300 = {"toy": {"floor": 1e-300, "nt": 128, "scan": [1.6, 2.4, 2]}}


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
        out = tmp_path / "o"
        assert main(["equiv-check", "--config", cfg, "--out", str(out)]) == 2
        assert "equiv.sigma_m must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

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
            ("equiv-check", {"toy": {"nt": 1}}),
            ("scan", {"toy": {"wavelet": "spike", "t0": 5.0}}),
            ("equiv-check", {"equiv": {"m_max": float("inf")}}),
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
            "equiv-check-toy-nt-1",
            "toy-spike-outside-record",
            "equiv-m_max-inf",
        ],
    )
    def test_rejected_config_value(self, tmp_path, capsys, command, payload):
        # every section is checked while the config loads, whatever the command
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"equiv": {"n": 20.5}}, "equiv: n must be an integer, got 20.5"),
            ({"equiv": {"n": True}}, "equiv: n must be an integer, got True"),
            ({"equiv": {"instances": 1.5}}, "equiv: instances must be an integer, got 1.5"),
            ({"equiv": {"instances": True}}, "equiv: instances must be an integer, got True"),
            ({"equiv": {"receivers": [3.7, 9, 15]}},
             "equiv: a receiver must be an integer, got 3.7"),
            ({"equiv": {"receivers": [3, True, 15]}},
             "equiv: a receiver must be an integer, got True"),
            ({"equiv": {"receivers": 5}}, "equiv: receiver indices must be one sequence"),
            ({"equiv": {"receivers": [[3, 9]]}}, "equiv: receiver indices must be one sequence"),
            ({"grad": {"n": 20.5}}, "grad: n must be an integer, got 20.5"),
            ({"grad": {"n": True}}, "grad: n must be an integer, got True"),
            ({"toy": {"nt": 512.5}}, "toy: nt must be an integer, got 512.5"),
            ({"toy": {"nt": True}}, "toy: nt must be an integer, got True"),
            ({"toy": {"scan": [1.5, 2.5, 21.5]}},
             "toy: the point count of scan must be an integer, got 21.5"),
            ({"toy": {"scan": [1.5, 2.5, True]}},
             "toy: the point count of scan must be an integer, got True"),
        ],
        ids=["equiv-n-fraction", "equiv-n-bool", "equiv-instances-fraction",
             "equiv-instances-bool", "equiv-receivers-fraction", "equiv-receivers-bool",
             "equiv-receivers-scalar", "equiv-receivers-nested",
             "grad-n-fraction", "grad-n-bool", "toy-nt-fraction", "toy-nt-bool",
             "toy-scan-points-fraction", "toy-scan-points-bool"],
    )
    def test_integer_value_is_not_truncated(self, tmp_path, capsys, payload, message):
        # int() would run 20.5 as 20 and true as 1, while the manifest's
        # digest records the value as written
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["equiv-check", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_is_an_integer(self, tmp_path):
        payload = {"equiv": {"n": 20.0, "instances": 1.0, "receivers": [3.0, 9, 15]}}
        cfg = write_config(tmp_path, payload)
        assert main(["equiv-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"n": 20.5}, "n must be an integer, got 20.5"),
            ({"n": True}, "n must be an integer, got True"),
            ({"n": 20.5, "instances": 2.5}, "n must be an integer, got 20.5"),
            ({"instances": 2.5}, "instances must be an integer, got 2.5"),
            ({"instances": True}, "instances must be an integer, got True"),
            ({"receivers": [3.7, 9, 15]}, "a receiver must be an integer, got 3.7"),
            ({"receivers": [3, True, 15]}, "a receiver must be an integer, got True"),
        ],
        ids=["n-fraction", "n-bool", "n-and-instances-fraction", "instances-fraction",
             "instances-bool", "receivers-fraction", "receivers-bool"],
    )
    def test_equiv_instances_take_integers_only(self, settings, message):
        # a caller that skips load_config gets no truncation either
        with pytest.raises(RejectedInputError, match=message):
            list(make_equiv_instances({**DEFAULT_CONFIG["equiv"], **settings}, 1))

    @pytest.mark.parametrize(
        "settings, n, message",
        [
            ({"n": 20.5}, None, "n must be an integer, got 20.5"),
            ({"n": True}, None, "n must be an integer, got True"),
            ({}, 20.7, "n must be an integer, got 20.7"),
            ({}, True, "n must be an integer, got True"),
        ],
        ids=["settings-fraction", "settings-bool", "argument-fraction", "argument-bool"],
    )
    def test_gradient_problem_takes_integers_only(self, settings, n, message):
        with pytest.raises(RejectedInputError, match=message):
            gradient_problem({**DEFAULT_CONFIG["grad"], **settings}, 1, n=n)

    @pytest.mark.parametrize("n", [20.0, np.int64(20), np.float64(20.0)], ids=repr)
    def test_integral_values_build_the_same_instances(self, n):
        settings = {**DEFAULT_CONFIG["equiv"], "n": 20}
        as_int = [(i, p.q.tobytes(), p.d.tobytes(), m.tobytes())
                  for i, p, m in make_equiv_instances(settings, 1)]
        integral = {**settings, "n": n, "instances": float(settings["instances"]),
                    "receivers": [np.int64(i) for i in settings["receivers"]]}
        assert [(i, p.q.tobytes(), p.d.tobytes(), m.tobytes())
                for i, p, m in make_equiv_instances(integral, 1)] == as_int
        ref, m_ref = gradient_problem(DEFAULT_CONFIG["grad"], 1, n=20)
        prob, m = gradient_problem(DEFAULT_CONFIG["grad"], 1, n=n)
        assert (prob.q.tobytes(), prob.d.tobytes(), m.tobytes()) == (
            ref.q.tobytes(), ref.d.tobytes(), m_ref.tobytes())

    @pytest.mark.parametrize("n", [201, 20_000])
    def test_equiv_n_above_200_runs_with_diagonal_kinds(self, tmp_path, n):
        payload = {"equiv": {"n": n, "instances": 1, "sigma_m_kind": "diagonal",
                             "sigma_p_kind": "diagonal"}}
        cfg = write_config(tmp_path, payload)
        assert main(["equiv-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_dense_sigma_p_above_200_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"equiv": {"n": 201, "instances": 1}})
        out = tmp_path / "o"
        assert main(["equiv-check", "--config", cfg, "--out", str(out)]) == 2
        assert "equiv.sigma_p_kind 'dense'" in capsys.readouterr().err
        assert not out.exists()

    def test_make_equiv_instances_refuses_dense_sigma_p_above_200(self, monkeypatch):
        # the bench oracle and the tests call make_equiv_instances without load_config
        def refuse(kind, dim, scale, rng):
            raise AssertionError("a weight was built")

        monkeypatch.setattr(cli, "random_covariance", refuse)
        settings = {**DEFAULT_CONFIG["equiv"], "n": 201, "instances": 1}
        with pytest.raises(ConfigError, match="equiv.sigma_p_kind 'dense' holds an n x n "
                           "array; it needs equiv.n <= 200, got 201"):
            next(make_equiv_instances(settings, 1))

    @pytest.mark.parametrize(
        "section, values",
        [
            ("equiv", {"sigma_m": -1.0}),  # would run as +1.0: the weight squares its scale
            ("equiv", {"data": "bogus"}),  # would run as "random"
            ("equiv", {"m_min": -0.1}),  # a medium that fails only when solved
            ("equiv", {"m_max": float("inf")}),  # an OverflowError drawing the medium
            ("grad", {"sigma_m_rel": -0.1}),  # would run as +0.1
            ("grad", {"data": "typo"}),  # would run as "perturbed"
        ],
        ids=["equiv-sigma_m-negative", "equiv-data-bogus", "equiv-m_min-negative",
             "equiv-m_max-inf", "grad-sigma_m_rel-negative", "grad-data-typo"],
    )
    def test_builders_refuse_what_load_config_refuses(self, tmp_path, capsys, monkeypatch,
                                                      section, values):
        # the bench oracle and the tests call the builders without load_config
        cfg = write_config(tmp_path, {section: values})
        out = tmp_path / "o"
        command = {"equiv": "equiv-check", "grad": "grad-check"}[section]
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

        def refuse(*args, **kwargs):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(cli, "helmholtz_problem", refuse)
        monkeypatch.setattr(cli, "assemble_A", refuse)
        settings = {**DEFAULT_CONFIG[section], **values}
        with pytest.raises(ConfigError):
            if section == "equiv":
                next(make_equiv_instances(settings, 1))
            else:
                gradient_problem(settings, 1)

    def test_default_config_is_pinned(self):
        # the defaults are the section types' field defaults; a drifted one
        # changes the JSON here and the digest of every default run
        assert {name: json.dumps(section, sort_keys=True)
                for name, section in DEFAULT_CONFIG.items()} == DEFAULT_JSON
        cfg, digest = cli.load_config(None)
        assert cfg == json.loads(json.dumps(DEFAULT_CONFIG))
        assert digest == DEFAULT_DIGEST

    def test_dense_sigma_m_above_200_runs(self, tmp_path):
        # sigma_m is n_rec x n_rec at any n
        payload = {"equiv": {"n": 201, "instances": 1, "sigma_p_kind": "diagonal"}}
        cfg = write_config(tmp_path, payload)
        assert main(["equiv-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "argv, payload, code",
        [
            (
                ["extsrc", "--regime", "general"],
                {"toy": {**SMALL_TOY["toy"], "sigma_m": 0.0}},
                1,
            ),
        ],
        ids=["check-failed"],
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

    def test_csv_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the bench config: 6 dense-weight instances at n = 200, seed 42
        cfg = write_config(tmp_path, {"equiv": {"n": 200, "instances": 6}})
        src = str(Path(xfwi.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run(
                [sys.executable, "-m", "xfwi.cli", "equiv-check", "--config", cfg,
                 "--seed", "42", "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            outputs.append((out / "equivalence.csv").read_bytes())
        assert outputs[0] == outputs[1]


    def test_gap_above_1e9_fails_the_command(self, tmp_path, monkeypatch, capsys):
        # 1e-8 lies between the gate, 1e-9, and ten times looser ones
        real = cli.verify_equivalence
        monkeypatch.setattr(cli, "verify_equivalence",
                            lambda prob, m: dataclasses.replace(real(prob, m), rel_gap=1e-8))
        cfg = write_config(tmp_path, SMALL_EQUIV)
        out = tmp_path / "out"
        assert main(["equiv-check", "--config", cfg, "--out", str(out)]) == 1
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
        assert "worst rel gap 1.000e-08" in capsys.readouterr().out


class TestGradCheck:
    def test_small_run_passes(self, tmp_path, capsys):
        # the default config: n = 20, seed 42
        out = tmp_path / "out"
        assert main(["grad-check", "--seed", "42", "--out", str(out)]) == 0
        header, rows = read_csv(out / "gradient.csv")
        assert header == ["component_k", "analytic", "fd_central", "rel_err"]
        assert len(rows) == 20
        assert all(float(r[3]) <= 1e-4 for r in rows)
        assert "paper" not in capsys.readouterr().out
        # the digest of the canonical default config, pinned so that deriving
        # the defaults (the toy section comes from ToyConfig) cannot move it
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_digest"] == DEFAULT_DIGEST

    def test_n100_seed2_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"grad": {"n": 100}})
        out = tmp_path / "out"
        assert main(["grad-check", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0

    @pytest.mark.parametrize("seed", [12, 42])
    def test_n100_passes_with_a_small_component(self, tmp_path, seed):
        # Component k = 1 is ~1e-7 against max|g| ~ 1.6e-3. Differences at a
        # step of 1e-4 missed it by 1.6e-4 (seed 12) and 1.0e-4 (seed 42),
        # from rounding in phi; at the fixed step of 1e-3, by 1.4e-5 and 6.3e-6
        cfg = write_config(tmp_path, {"grad": {"n": 100}})
        out = tmp_path / "out"
        assert main(["grad-check", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0

    @pytest.mark.parametrize("seed", [42, 12])
    def test_n100_csv_is_the_per_medium_loops(self, tmp_path, seed):
        # gradient.csv byte for byte as the loop of one reduced pass per
        # perturbed medium writes it
        cfg = write_config(tmp_path, {"grad": {"n": 100}})
        out = tmp_path / "out"
        assert main(["grad-check", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        prob, m = gradient_problem(dict(DEFAULT_CONFIG["grad"], n=100), seed)
        analytic = grad_phi(prob, m)
        fd = fd_gradient_per_medium(prob, m)
        rel = np.abs(analytic - fd) / (np.abs(fd) + 1e-9 * (1.0 + np.max(np.abs(fd))))
        write_csv(tmp_path / "expected.csv",
                  ["component_k", "analytic", "fd_central", "rel_err"],
                  [np.arange(100), analytic, fd, rel])
        expected = (tmp_path / "expected.csv").read_bytes()
        assert (out / "gradient.csv").read_bytes() == expected

    def test_error_above_1e4_fails_the_command(self, tmp_path, monkeypatch, capsys):
        # differences 1e-3 off the analytic gradient: between the gate, 1e-4,
        # and looser ones such as 1e-2
        monkeypatch.setattr(cli, "fd_gradient", lambda prob, m: grad_phi(prob, m) / (1.0 + 1e-3))
        out = tmp_path / "out"
        assert main(["grad-check", "--seed", "42", "--out", str(out)]) == 1
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
        _, rows = read_csv(out / "gradient.csv")
        assert 9e-4 <= max(float(r[3]) for r in rows) <= 1e-3
        assert "max rel err 1.000e-03" in capsys.readouterr().out

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

    def test_weight_ratio_out_of_range_fails_its_points(self, tmp_path):
        # lam underflows to 0 in the extended regime; unchecked, it divides by
        # zero and leaves a singular normal matrix at every point
        cfg = write_config(tmp_path, FLOOR_1E300)
        out = tmp_path / "out"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 1
        _, rows = read_csv(out / "scan.csv")
        assert [r[5] for r in rows] == ["ok/DegenerateWeightsError"] * 2
        assert all(r[4] == "nan" for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_TOY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["scan", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
        assert main(["scan", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
        assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()


def test_parser_built_once_per_process(tmp_path):
    cli.build_parser.cache_clear()
    for name in ("a", "b"):
        assert main(["extsrc", "--c=0", "--out", str(tmp_path / name)]) == 2
    assert cli.build_parser.cache_info().misses == 1


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

    def test_velocities_do_not_carry_over_between_calls(self, tmp_path):
        # main reuses one parser; the --c list of one call is not the next one's
        cfg = write_config(tmp_path, SMALL_TOY)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["extsrc", "--config", cfg, "--out", str(first), "--c", "1.7"]) == 0
        assert main(["extsrc", "--config", cfg, "--out", str(second)]) == 0
        assert sorted(p.name for p in second.glob("extsrc_c*.csv")) == [
            "extsrc_c1.8.csv", "extsrc_c2.2.csv"]

    @pytest.mark.parametrize("c", ["-1", "0", "nan", "inf"])
    def test_bad_velocity_is_usage_error(self, tmp_path, c):
        out = tmp_path / "out"
        assert main(["extsrc", f"--c={c}", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("values", [["1.8", "1.8000001"], ["2", "2.0"]])
    def test_velocities_sharing_a_file_tag_are_usage_error(self, tmp_path, capsys, values):
        # both would write extsrc_c1.8.csv (extsrc_c2.csv): the second run
        # would overwrite the first
        out = tmp_path / "out"
        argv = ["extsrc", "--out", str(out)] + [f"--c={c}" for c in values]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "repeat a file tag" in err
        # reported by the extsrc subparser, under its own usage line
        assert err.startswith("usage: xfwi extsrc ")
        assert not out.exists()

    def test_zero_measurement_weight_exits_1(self, tmp_path):
        toy = {**SMALL_TOY["toy"], "sigma_m": 0.0}
        cfg = write_config(tmp_path, {"toy": toy})
        out = tmp_path / "out"
        assert main(
            ["extsrc", "--config", cfg, "--out", str(out), "--regime", "general"]
        ) == 1

    def test_weight_ratio_out_of_range_is_a_check_failure(self, tmp_path, capsys):
        # lam overflows in the conventional regime; unchecked, squaring the
        # ratio raises a bare OverflowError
        cfg = write_config(tmp_path, FLOOR_1E300)
        out = tmp_path / "out"
        argv = ["extsrc", "--config", cfg, "--out", str(out), "--regime", "conventional"]
        assert main(argv) == 1
        assert "check failed: sigma_m = 1.0 and sigma_p = " in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["status"] == "error"

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
        toy_cfg = _config_section({"toy": {**DEFAULT_CONFIG["toy"], **toy}}, "toy")
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
