"""End-to-end tests of the command line interface."""

import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from btem.cli import main
from btem.sampler import load_dataset


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def dataset_file(tmp_path, capsys):
    path = tmp_path / "data.txt"
    code, _, _ = run([
        "generate", "--n", "64", "--m", "60", "--q", "0.05", "--c", "0.5",
        "--seed", "3", "--out", str(path),
    ], capsys)
    assert code == 0
    return path


class TestGenerate:
    def test_writes_loadable_dataset(self, dataset_file):
        ds = load_dataset(dataset_file)
        assert ds.m == 60
        assert ds.dim == 64
        assert ds.k == 2

    def test_deterministic(self, tmp_path, capsys):
        paths = []
        for name in ("a.txt", "b.txt"):
            p = tmp_path / name
            code, _, _ = run([
                "generate", "--n", "32", "--m", "10", "--q", "0.1",
                "--c", "0.5", "--seed", "9", "--out", str(p),
            ], capsys)
            assert code == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_random_templates_with_three_components(self, tmp_path, capsys):
        p = tmp_path / "r.txt"
        code, _, _ = run([
            "generate", "--n", "60", "--m", "12", "--k", "3", "--q", "0.1",
            "--c", "0.3", "--w-min", "0.2", "--templates", "random",
            "--seed", "1", "--out", str(p),
        ], capsys)
        assert code == 0
        assert load_dataset(p).k == 3

    def test_line_templates_reject_k3(self, tmp_path, capsys):
        code, _, err = run([
            "generate", "--n", "60", "--m", "12", "--k", "3", "--q", "0.1",
            "--c", "0.3", "--w-min", "0.2", "--out", str(tmp_path / "x.txt"),
        ], capsys)
        assert code == 2
        assert err

    def test_unachievable_separation_is_config_error(self, tmp_path, capsys):
        code, _, _ = run([
            "generate", "--n", "2", "--m", "5", "--k", "3", "--q", "0.1",
            "--c", "1.0", "--w-min", "0.2", "--templates", "random",
            "--seed", "0", "--out", str(tmp_path / "x.txt"),
        ], capsys)
        assert code == 2


class TestFit:
    def test_two_round_json(self, dataset_file, capsys):
        code, out, _ = run([
            "fit", "--data", str(dataset_file), "--k", "2", "--seed", "1",
        ], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["algo"] == "two-round"
        assert doc["k"] == 2
        assert 0.0 < doc["q0"] <= 0.5
        assert doc["purity_vs_file_labels"] == 1.0
        assert len(doc["templates_hex"]) == 2
        assert doc["diagnostics"]["init_count"] == 30
        assert doc["diagnostics"]["wall_time_s"] > 0

    def test_fit_to_file(self, dataset_file, tmp_path, capsys):
        out_path = tmp_path / "fit.json"
        code, out, _ = run([
            "fit", "--data", str(dataset_file), "--k", "2",
            "--out", str(out_path),
        ], capsys)
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["k"] == 2

    def test_standard_needs_q_known(self, dataset_file, capsys):
        code, _, err = run([
            "fit", "--data", str(dataset_file), "--algo", "standard",
            "--k", "2",
        ], capsys)
        assert code == 2
        assert "q-known" in err

    def test_standard_fit(self, dataset_file, capsys):
        code, out, _ = run([
            "fit", "--data", str(dataset_file), "--algo", "standard",
            "--k", "2", "--q-known", "0.05", "--iterations", "4",
            "--restarts", "3",
        ], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["restart_index"] in range(3)

    def test_missing_data_file(self, tmp_path, capsys):
        code, _, err = run([
            "fit", "--data", str(tmp_path / "nope.txt"), "--k", "2",
        ], capsys)
        assert code == 3
        assert err

    @pytest.mark.parametrize("text", [
        "n=1000000 m=10000000000 k=2\n0 00\n",
        "n=4 m=1 k=2\n0 00\n1 00\n0 00\n",
    ])
    def test_bad_record_count_is_data_error(self, text, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        code, _, err = run(["fit", "--data", str(p), "--k", "2"], capsys)
        assert code == 3
        assert "internal error" not in err

    def test_oversized_k_is_run_failure(self, dataset_file, capsys):
        # delta=0.9, w_min=0.5 seeds only 12 clusters, fewer than k=13
        code, _, err = run([
            "fit", "--data", str(dataset_file), "--k", "13",
            "--delta", "0.9",
        ], capsys)
        assert code == 4
        assert err


class TestGoldenFit:
    """`btem fit` output pinned byte for byte on a committed dataset.

    The dataset and the JSON files were written by `btem generate --n 301
    --m 400 --k 3 --q 0.1 --c 0.3 --w-min 0.25 --templates random --seed 5`
    and `btem fit` with the flags below.  Only wall_time_s may differ.
    """

    DATA = Path(__file__).parent / "data"
    CASES = {
        "golden_fit_two_round.json": ["--algo", "two-round", "--w-min", "0.25"],
        "golden_fit_standard.json": [
            "--algo", "standard", "--q-known", "0.1", "--iterations", "5",
            "--restarts", "4"],
        # restart 0 loses here, so the winner is not the first restart
        "golden_fit_standard_seed1.json": [
            "--algo", "standard", "--q-known", "0.1", "--iterations", "5",
            "--restarts", "4", "--seed", "1"],
    }

    @staticmethod
    def mask_wall_time(text):
        return re.sub(r'"wall_time_s": [^\n]*', '"wall_time_s": null', text)

    @pytest.mark.parametrize("golden", sorted(CASES))
    def test_matches_committed_json(self, golden, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code, _, _ = run([
            "fit", "--data", str(self.DATA / "golden_n301_m400_k3.txt"),
            "--k", "3", *self.CASES[golden], "--out", str(out),
        ], capsys)
        assert code == 0
        expected = (self.DATA / golden).read_text()
        assert self.mask_wall_time(out.read_text()) == \
            self.mask_wall_time(expected)


class TestSweep:
    CONFIG = {
        "grid": {"m": [35, 45]},
        "fixed": {"n": 64, "k": 2, "q": 0.05, "c": 0.5, "w_min": 0.5},
        "trials": 2,
        "seed": 1,
    }

    def write_config(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(self.CONFIG))
        return p

    def test_sweep_outputs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        code, _, _ = run([
            "sweep", "--config", str(cfg), "--out", str(out_dir),
        ], capsys)
        assert code == 0
        csv_text = (out_dir / "results.csv").read_text()
        assert csv_text.count("\n") == 3  # header + 2 points
        chart = out_dir / "rate_vs_m.svg"
        assert chart.exists()
        ET.parse(chart)

    def test_two_axis_sweep_writes_frontier(self, tmp_path, capsys):
        cfg_doc = dict(self.CONFIG)
        cfg_doc["grid"] = {"m": [35, 45], "n": [48, 64]}
        cfg_doc["fixed"] = {"k": 2, "q": 0.05, "c": 0.5, "w_min": 0.5}
        cfg = tmp_path / "cfg2.json"
        cfg.write_text(json.dumps(cfg_doc))
        out_dir = tmp_path / "out2"
        code, _, _ = run([
            "sweep", "--config", str(cfg), "--out", str(out_dir),
        ], capsys)
        assert code == 0
        assert (out_dir / "frontier_m_n.svg").exists()

    def test_threads_env_override_keeps_bytes(self, tmp_path, capsys,
                                              monkeypatch):
        cfg = self.write_config(tmp_path)
        outputs = []
        for threads, envval in (("1", None), ("1", "3")):
            out_dir = tmp_path / f"out{threads}{envval}"
            if envval is None:
                monkeypatch.delenv("BTEM_THREADS", raising=False)
            else:
                monkeypatch.setenv("BTEM_THREADS", envval)
            code, _, _ = run([
                "sweep", "--config", str(cfg), "--out", str(out_dir),
                "--threads", threads,
            ], capsys)
            assert code == 0
            outputs.append((out_dir / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_non_integer_threads_env_is_config_error(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setenv("BTEM_THREADS", "two")
        code, _, err = run([
            "sweep", "--config", str(self.write_config(tmp_path)),
            "--out", str(tmp_path / "o"),
        ], capsys)
        assert code == 2
        assert "BTEM_THREADS" in err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run([
            "sweep", "--config", str(p), "--out", str(tmp_path / "o"),
        ], capsys)
        assert code == 2
        assert "line" in err


class TestTheory:
    def test_satisfied_report(self, capsys):
        code, out, _ = run([
            "theory", "--n", "4096", "--m", "300", "--k", "2",
            "--q", "0.0001", "--c", "1.0", "--w-min", "0.5",
        ], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["recovery"]["satisfied"] is True
        assert doc["technical"]["satisfied"] is True
        assert doc["params"]["n"] == 4096
        names = [c["name"] for c in doc["recovery"]["conditions"]]
        assert names == ["init-count", "sample-size", "separation",
                         "dimension"]

    def test_unsatisfied_when_noise_large(self, capsys):
        code, out, _ = run([
            "theory", "--n", "4096", "--m", "300", "--k", "2",
            "--q", "0.3", "--c", "1.0", "--w-min", "0.5",
        ], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["recovery"]["satisfied"] is False
        assert doc["recovery"]["reason"]

    def test_invalid_params_exit_code(self, capsys):
        code, _, _ = run([
            "theory", "--n", "4096", "--m", "300", "--k", "2",
            "--q", "0.6", "--c", "1.0", "--w-min", "0.5",
        ], capsys)
        assert code == 2


class TestRender:
    def test_hex_source(self, tmp_path, capsys):
        # one cell, 18 bits: 0x11 0x00 0x00 has two lit bits
        out = tmp_path / "s.svg"
        code, _, _ = run([
            "render", "--hex", "110000", "--grid", "1", "--out", str(out),
        ], capsys)
        assert code == 0
        root = ET.parse(out).getroot()
        segs = [el for el in root.iter() if el.get("class") == "seg"]
        assert len(segs) == 2

    def test_dataset_row_source(self, tmp_path, capsys):
        p = tmp_path / "d.txt"
        n = 9 * 9 * 18
        run(["generate", "--n", str(n), "--m", "3", "--q", "0.1",
             "--c", "0.5", "--seed", "4", "--out", str(p)], capsys)
        out = tmp_path / "row.svg"
        code, _, _ = run([
            "render", "--data", str(p), "--row", "2", "--out", str(out),
        ], capsys)
        assert code == 0
        ds = load_dataset(p)
        root = ET.parse(out).getroot()
        segs = [el for el in root.iter() if el.get("class") == "seg"]
        assert len(segs) == int(ds.examples[2].sum())

    def test_row_out_of_range(self, tmp_path, capsys):
        p = tmp_path / "d.txt"
        n = 1 * 1 * 18
        run(["generate", "--n", str(n), "--m", "2", "--q", "0.1",
             "--c", "0.5", "--seed", "4", "--out", str(p)], capsys)
        code, _, _ = run([
            "render", "--data", str(p), "--row", "5", "--grid", "1",
            "--out", str(tmp_path / "x.svg"),
        ], capsys)
        assert code == 3

    def test_wrong_hex_length(self, tmp_path, capsys):
        code, _, _ = run([
            "render", "--hex", "11", "--grid", "1",
            "--out", str(tmp_path / "x.svg"),
        ], capsys)
        assert code == 3


class TestMetrics:
    def test_label_files(self, tmp_path, capsys):
        (tmp_path / "pred.txt").write_text("0\n0\n1\n1\n")
        (tmp_path / "truth.txt").write_text("0\n1\n0\n1\n")
        code, out, _ = run([
            "metrics", "--pred", str(tmp_path / "pred.txt"),
            "--truth", str(tmp_path / "truth.txt"),
        ], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["purity"] == 0.5
        assert doc["entropy_nats"] == pytest.approx(0.6931471805599453)
        assert doc["entropy_bits"] == pytest.approx(1.0)

    def test_bad_labels(self, tmp_path, capsys):
        (tmp_path / "pred.txt").write_text("zero\none\n")
        (tmp_path / "truth.txt").write_text("0\n1\n")
        code, _, _ = run([
            "metrics", "--pred", str(tmp_path / "pred.txt"),
            "--truth", str(tmp_path / "truth.txt"),
        ], capsys)
        assert code == 3


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "btem.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for sub in ("generate", "fit", "sweep", "theory", "render",
                    "metrics"):
            assert sub in proc.stdout
