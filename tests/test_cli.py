"""End-to-end command-line behaviour, exercised in process."""

import json
from hashlib import sha256

import numpy as np
import pytest

from unpredictable import read_sequence, read_trajectory_csv, verify_filtered
from unpredictable.cli import main


def run(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run("point", "--first", "0") == 2
        capsys.readouterr()

    def test_unknown_command_is_2(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_domain_error_is_1(self, tmp_path, capsys):
        out = tmp_path / "x.seq"
        code = run("bernoulli", "--seed", "1", "--length", "10",
                   "--p", "0.7,0.7", "--out", str(out))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file_is_1(self, tmp_path, capsys):
        code = run("shift", "--in", str(tmp_path / "absent.seq"),
                   "--out", str(tmp_path / "y.seq"))
        assert code == 1
        capsys.readouterr()

    def test_success_is_0(self, tmp_path):
        assert run("point", "--first", "0", "--length", "8",
                   "--out", str(tmp_path / "p.seq")) == 0


class TestPointCommand:
    def test_writes_readable_window(self, tmp_path):
        out = tmp_path / "p.seq"
        run("point", "--first", "-8", "--length", "17", "--out", str(out))
        w = read_sequence(out)
        assert w.first_index == -8
        assert len(w) == 17

    def test_known_prefix(self, tmp_path):
        out = tmp_path / "p.seq"
        run("point", "--first", "0", "--length", "17", "--out", str(out))
        w = read_sequence(out)
        text = "".join(str(int(v)) for v in w.symbols)
        assert text == "00010000010100110"

    def test_resource_limit_maps_to_1(self, tmp_path, capsys):
        code = run("point", "--first", "0", "--length", str(2 ** 20 + 1),
                   "--out", str(tmp_path / "p.seq"))
        assert code == 1
        capsys.readouterr()


class TestBernoulliCommand:
    def test_reproducible_bytes(self, tmp_path):
        a = tmp_path / "a.seq"
        b = tmp_path / "b.seq"
        for out in (a, b):
            assert run("bernoulli", "--seed", "42", "--length", "500",
                       "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_p_means_second_symbol(self, tmp_path):
        out = tmp_path / "ones.seq"
        run("bernoulli", "--seed", "3", "--length", "40", "--p", "1.0",
            "--out", str(out))
        assert np.all(read_sequence(out).symbols == 1.0)

    def test_explicit_distribution(self, tmp_path):
        out = tmp_path / "tri.seq"
        code = run("bernoulli", "--seed", "9", "--length", "200",
                   "--p", "0.2,0.3,0.5", "--alphabet", "0,0.5,1",
                   "--out", str(out))
        assert code == 0
        w = read_sequence(out)
        assert set(np.unique(w.symbols)) <= {0.0, 0.5, 1.0}


class TestFilterCommand:
    def test_pipeline_produces_bounded_trajectory(self, tmp_path):
        seq = tmp_path / "drive.seq"
        csv = tmp_path / "chi.csv"
        run("bernoulli", "--seed", "7", "--length", "1000",
            "--out", str(seq))
        code = run("filter", "--in", str(seq), "--mu", "0.1",
                   "--phi0", "0.5", "--t-end", "100", "--dt", "0.01",
                   "--out", str(csv))
        assert code == 0
        tr = read_trajectory_csv(csv)
        assert len(tr) == 10001
        assert float(tr.values.min()) >= 0.0
        assert float(tr.values.max()) <= 1.0

    def test_deterministic_output(self, tmp_path):
        seq = tmp_path / "drive.seq"
        run("bernoulli", "--seed", "1", "--length", "200", "--out", str(seq))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run("filter", "--in", str(seq), "--t-end", "15",
                "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_coverage_failure_maps_to_1(self, tmp_path, capsys):
        seq = tmp_path / "short.seq"
        run("bernoulli", "--seed", "1", "--length", "10", "--out", str(seq))
        code = run("filter", "--in", str(seq), "--t-end", "100",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 1
        capsys.readouterr()

    def test_sample_limit_maps_to_1(self, tmp_path, capsys):
        seq = tmp_path / "drive.seq"
        run("bernoulli", "--seed", "1", "--length", "1000", "--out", str(seq))
        out = tmp_path / "x.csv"
        code = run("filter", "--in", str(seq), "--dt", "1e-9",
                   "--t-end", "100", "--out", str(out))
        assert code == 1
        assert "samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, digest", [
        (("--mu", "0.1", "--dt", "0.01", "--t-end", "300", "--phi0", "0"),
         "96c4b4bbfbf83f34b7f8a103084d084a907f6a441e62c0c3b121241a6d624ee4"),
        (("--mu", "0.37", "--dt", "0.05", "--lambda", "2.5",
          "--t-end", "1110", "--phi0", "0.5"),
         "7b94a5403708c0a94f56cf680294e18b5bb298052473295e8640124d5a468f77"),
        (("--mu", "0.37", "--dt", "0.05", "--lambda", "2.5",
          "--t-end", "1110", "--phi0", "0.5", "--digits", "9"),
         "2ff447c571f10b6ff45154654307475b4f1bb459916120c0d7e320d0ab0b24cb"),
    ])
    def test_golden_bytes(self, tmp_path, flags, digest):
        # digests of the piece-by-piece integrator and per-row CSV writer
        seq = tmp_path / "drive.seq"
        csv = tmp_path / "chi.csv"
        assert run("bernoulli", "--seed", "7", "--length", "3000",
                   "--alphabet=-1,0,1", "--p", "0.25,0.5,0.25",
                   "--out", str(seq)) == 0
        assert sha256(seq.read_bytes()).hexdigest() == (
            "34e2be04d6b4a073da4ee2e698a55a91fc6a626712834ac4f84d8d050330bd95")
        assert run("filter", "--in", str(seq), *flags, "--out", str(csv)) == 0
        assert sha256(csv.read_bytes()).hexdigest() == digest


class TestMetricAndShiftCommands:
    def test_shift_then_metric(self, tmp_path):
        a = tmp_path / "a.seq"
        s = tmp_path / "s.seq"
        run("point", "--first", "-40", "--length", "80", "--out", str(a))
        assert run("shift", "--in", str(a), "--times", "3",
                   "--out", str(s)) == 0
        assert read_sequence(s).first_index == -43

        report = tmp_path / "d.json"
        assert run("metric", "--a", str(a), "--b", str(s),
                   "--half-width", "16", "--out", str(report)) == 0
        data = json.loads(report.read_text())
        assert set(data) == {"value", "tail_bound"}
        assert data["value"] > 0.0

    @pytest.mark.parametrize("index", ["99999999999999999999", "-1", "0.5"])
    def test_bad_index_in_file_is_1(self, tmp_path, capsys, index):
        bad = tmp_path / "big.seq"
        bad.write_text(f"alphabet: 0.0,1.0\nfirst_index: 0\n0,{index}\n")
        out = tmp_path / "y.seq"
        assert run("shift", "--in", str(bad), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_oversized_bernoulli_length_is_1(self, tmp_path, capsys):
        out = tmp_path / "x.seq"
        assert run("bernoulli", "--seed", "0", "--length",
                   "1180591620717411303424", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_metric_of_window_with_itself(self, tmp_path, capsys):
        a = tmp_path / "a.seq"
        run("point", "--first", "-20", "--length", "41", "--out", str(a))
        assert run("metric", "--a", str(a), "--b", str(a),
                   "--half-width", "10") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == 0.0


class TestVerifyCommands:
    def test_verify_seq_on_point_window(self, tmp_path):
        seq = tmp_path / "p.seq"
        report = tmp_path / "r.json"
        run("point", "--first", "-4096", "--length", "8192",
            "--out", str(seq))
        code = run("verify-seq", "--in", str(seq), "--half-width", "4",
                   "--epsilon0", "1", "--count", "3", "--out", str(report))
        assert code == 0
        data = json.loads(report.read_text())
        assert data["verdict"] == "consistent"
        assert data["epsilon0_requested"] == 1.0
        assert len(data["witnesses"]) == 3
        assert data["witnesses"][0]["zeta"] == 34
        assert data["data_coverage"] == {"first_index": -4096,
                                         "last_index": 4095}
        assert data["parameters"]["window_half_width"] == 4

    def test_verify_seq_periodic_control(self, tmp_path):
        seq = tmp_path / "p.seq"
        report = tmp_path / "r.json"
        run("bernoulli", "--seed", "0", "--length", "64", "--p", "0.0",
            "--out", str(seq))
        shifted = tmp_path / "c.seq"
        run("shift", "--in", str(seq), "--times", "32", "--out", str(shifted))
        code = run("verify-seq", "--in", str(shifted), "--half-width", "4",
                   "--epsilon0", "1", "--count", "1", "--out", str(report))
        assert code == 0
        assert json.loads(report.read_text())["verdict"] == "inconsistent"

    def test_verify_fn_smoke(self, tmp_path):
        seq = tmp_path / "p.seq"
        report = tmp_path / "r.json"
        run("point", "--first", "-64", "--length", "256", "--out", str(seq))
        code = run("verify-fn", "--in", str(seq), "--mu", "1",
                   "--shifts", "34", "--integer-shifts",
                   "--alpha", "0", "--beta", "2", "--burn-in", "6",
                   "--tolerance", "0.05", "--out", str(report))
        assert code == 0
        data = json.loads(report.read_text())
        assert data["verdict"] in ("consistent", "inconsistent",
                                   "inconclusive")
        assert data["separation_achieved"] >= 0.0
        assert data["separation_predicted_lower_bound"] == \
            pytest.approx(1.0 / 24.0)
        assert data["parameters"]["t_shift_candidates"] == [34.0]

    def test_verify_fn_deterministic(self, tmp_path):
        seq = tmp_path / "p.seq"
        run("point", "--first", "-64", "--length", "256", "--out", str(seq))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run("verify-fn", "--in", str(seq), "--mu", "1",
                       "--shifts", "34", "--integer-shifts",
                       "--alpha", "0", "--beta", "2", "--burn-in", "6",
                       "--tolerance", "0.05", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def windows(tmp_path_factory):
    """i* windows [-4096, 4095] and [-64, 191], and the first shifted by 3."""
    d = tmp_path_factory.mktemp("windows")
    paths = {name: str(d / f"{name}.seq")
             for name in ("big", "small", "moved")}
    assert run("point", "--first", "-4096", "--length", "8192",
               "--out", paths["big"]) == 0
    assert run("point", "--first", "-64", "--length", "256",
               "--out", paths["small"]) == 0
    assert run("shift", "--in", paths["big"], "--times", "3",
               "--out", paths["moved"]) == 0
    return paths


FIXED_SHIFT = ("--mu", "1", "--shifts", "34", "--integer-shifts",
               "--beta", "2", "--burn-in", "6")


class TestReports:
    @pytest.mark.parametrize("argv, digest", [
        (("verify-seq", "--in", "{big}", "--half-width", "4",
          "--epsilon0", "1", "--count", "3"),
         "31458c7ba9e4504e1dd37b4025135176bfbc224bcea69c1cb8d46c106aecc3bc"),
        (("verify-fn", "--in", "{big}", "--mu", "1"),
         "28d86cc3c1a61cdd7b71d51888dfb65a1cf99c8b0749713cd3b66a94c213976d"),
        (("verify-fn", "--in", "{small}", *FIXED_SHIFT, "--tolerance", "0.05"),
         "335c630c6da2bcc61538fa085985b7e27d9650ff17241b63d49103029d37c76d"),
        (("metric", "--a", "{big}", "--b", "{moved}", "--half-width", "16"),
         "e2b6e1e0b0de1a22f4ba9528359fc2192c677175e72a4d2613ab9466c500dc8b"),
    ])
    def test_golden_bytes(self, tmp_path, windows, argv, digest):
        # digests of the reports as written while the CLI held the policy
        # and copied witness fields into the reports by hand
        out = tmp_path / "report.json"
        argv = [a.format(**windows) for a in argv]
        assert run(*argv, "--out", str(out)) == 0
        assert sha256(out.read_bytes()).hexdigest() == digest

    def test_library_report_equals_cli(self, tmp_path, windows):
        out = tmp_path / "fn.json"
        assert run("verify-fn", "--in", windows["big"], "--mu", "1",
                   "--out", str(out)) == 0
        report = verify_filtered(
            read_sequence(windows["big"]), mu=1.0, decay=1.0, phi0=0.5,
            burn_in=8.0, compact=(0.0, 4.0), half_width=4, auto_shifts=3)
        assert report == json.loads(out.read_text())

    @pytest.mark.parametrize("argv, message", [
        (("verify-fn", "--in", "{small}", *FIXED_SHIFT, "--tolerance", "nan"),
         "tolerance must be finite"),
        (("verify-fn", "--in", "{small}", *FIXED_SHIFT, "--sigma", "inf",
          "--dt", "0.001"), "finite"),
        (("verify-seq", "--in", "{big}", "--half-width", "4",
          "--epsilon0", "inf"), "epsilon0 must be finite"),
        (("verify-fn", "--in", "{small}", "--mu", "1", "--shifts="),
         "comma-separated"),
        (("verify-fn", "--in", "{small}", *FIXED_SHIFT, "--sigma", "inf",
          "--dt", "0.001"), "sigma must be finite"),
        (("verify-fn", "--in", "{small}", *FIXED_SHIFT, "--lambda", "0"),
         "decay must be a positive real"),
        (("verify-fn", "--in", "{small}", *FIXED_SHIFT, "--sigma", "inf"),
         "sigma must be finite"),
        (("verify-fn", "--in", "{small}", *FIXED_SHIFT, "--sigma", "nan"),
         "sigma must be finite"),
    ])
    def test_rejected_parameters_map_to_1(self, tmp_path, capsys, windows,
                                          argv, message):
        out = tmp_path / "report.json"
        argv = [a.format(**windows) for a in argv]
        assert run(*argv, "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
