import json

import numpy as np
import pytest

from funsel import FunctionalSample, Grid
from funsel.cli import ingest_curves, ingest_targets, main, write_curves
from funsel.oracle import KlModel, fourier_basis, simulate


def _write(path, text):
    path.write_text(text)
    return str(path)


def _synthetic_curves(tmp_path, n=30, n_points=41, seed=0, variances=(4.0, 1.0)):
    g = Grid.uniform(0.0, 1.0, n_points)
    basis = fourier_basis(g, len(variances))
    model = KlModel(g, np.zeros(n_points), basis, np.array(variances))
    sample = simulate(model, n, seed)
    path = tmp_path / "curves.csv"
    write_curves(sample, path)
    return sample, str(path)


class TestIngestCurves:
    def test_minimal_file(self, tmp_path):
        path = _write(tmp_path / "x.csv", "0,1\na,0,0\nb,1,2\n")
        sample = ingest_curves(path)
        assert sample.ids == ("a", "b")
        assert np.array_equal(sample.curves, [[0.0, 0.0], [1.0, 2.0]])
        assert np.array_equal(sample.grid.points, [0.0, 1.0])

    def test_round_trip(self, tmp_path):
        sample, path = _synthetic_curves(tmp_path, seed=3)
        again = ingest_curves(path)
        assert again.ids == sample.ids
        assert np.array_equal(again.curves, sample.curves)
        assert np.array_equal(again.grid.points, sample.grid.points)

    def test_non_ascending_header(self, tmp_path):
        path = _write(tmp_path / "x.csv", "1,0\na,0,0\n")
        with pytest.raises(ValueError, match="ascending"):
            ingest_curves(path)

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path / "x.csv", "0,1\na,0\n")
        with pytest.raises(ValueError, match="expected 3 fields"):
            ingest_curves(path)

    def test_unparseable_number(self, tmp_path):
        path = _write(tmp_path / "x.csv", "0,1\na,0,zap\n")
        with pytest.raises(ValueError, match="cannot parse number 'zap'"):
            ingest_curves(path)

    def test_nonfinite_rows_named(self, tmp_path):
        path = _write(tmp_path / "x.csv", "0,1\na,0,0\nb,inf,1\n")
        with pytest.raises(ValueError, match=r"non-finite values on lines \[3\]"):
            ingest_curves(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = _write(tmp_path / "x.csv", "0,1\n\na,0,0\nb,inf,1\n")
        with pytest.raises(ValueError, match=r"non-finite values on lines \[4\]"):
            ingest_curves(path)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_nonfinite_header_names_file(self, tmp_path, cell):
        path = _write(tmp_path / "x.csv", f"0,{cell}\na,0,0\n")
        with pytest.raises(ValueError, match=r"x\.csv header: .*finite"):
            ingest_curves(path)


class TestIngestTargets:
    def _sample(self):
        g = Grid.from_points([0.0, 1.0])
        return FunctionalSample(g, np.zeros((2, 2)), ("a", "b"))

    def test_labels_aligned_to_sample_order(self, tmp_path):
        path = _write(tmp_path / "y.csv", "b,1\na,0\n")
        labels = ingest_targets(path, "labels", self._sample())
        assert np.array_equal(labels, [0, 1])

    def test_missing_id_is_named(self, tmp_path):
        path = _write(tmp_path / "y.csv", "a,0\n")
        with pytest.raises(ValueError, match=r"missing ids \['b'\]"):
            ingest_targets(path, "labels", self._sample())

    def test_extra_id_is_named(self, tmp_path):
        path = _write(tmp_path / "y.csv", "a,0\nb,1\nc,2\n")
        with pytest.raises(ValueError, match=r"unexpected ids \['c'\]"):
            ingest_targets(path, "labels", self._sample())

    def test_duplicate_id(self, tmp_path):
        path = _write(tmp_path / "y.csv", "a,0\na,1\nb,1\n")
        with pytest.raises(ValueError, match="duplicate id 'a'"):
            ingest_targets(path, "labels", self._sample())

    def test_scalar_targets(self, tmp_path):
        path = _write(tmp_path / "y.csv", "a,1.5\nb,-2.0\n")
        y = ingest_targets(path, "scalar", self._sample())
        assert np.array_equal(y, [1.5, -2.0])

    def test_functional_targets_on_own_grid(self, tmp_path):
        # the response grid is independent of the predictor grid
        path = _write(tmp_path / "y.csv", "2,3,5\nb,1,2,3\na,4,5,6\n")
        y = ingest_targets(path, "functional", self._sample())
        assert np.array_equal(y.grid.points, [2.0, 3.0, 5.0])
        assert np.array_equal(y.curves, [[4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
        assert y.ids == ("a", "b")


class TestFeaturesCommand:
    def test_writes_feature_table(self, tmp_path):
        _, curves = _synthetic_curves(tmp_path)
        out = tmp_path / "features.csv"
        rc = main([
            "features", "--curves", curves,
            "--feature", "point@0", "--feature", "pathnorm^1",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id,point@0,pathnorm^1"
        assert len(lines) == 31


class TestBlindCommand:
    def test_r1_round_trips_curves(self, tmp_path):
        sample, curves = _synthetic_curves(tmp_path)
        out = tmp_path / "blinded.csv"
        rc = main([
            "blind", "--curves", curves, "--feature", "point@0",
            "--subset", "0", "--r", "1", "--out", str(out),
        ])
        assert rc == 0
        blinded = ingest_curves(out)
        assert np.array_equal(blinded.curves, sample.curves)

    def test_r_equals_n_gives_mean(self, tmp_path):
        sample, curves = _synthetic_curves(tmp_path, n=10)
        out = tmp_path / "blinded.csv"
        rc = main([
            "blind", "--curves", curves, "--feature", "point@0",
            "--subset", "0", "--r", "10", "--out", str(out),
        ])
        assert rc == 0
        blinded = ingest_curves(out)
        assert np.allclose(blinded.curves, sample.curves.mean(axis=0), atol=1e-12)


def _select_args(curves, out, **over):
    base = {
        "--task": "pca", "--curves": curves, "--epsilon": "0.05",
        "--d1": "1", "--n0": "2", "--n1": "3", "--r": "4",
        "--d-max": "4", "--seed": "11", "--n-components": "2",
        "--out": out,
    }
    base.update(over)
    args = ["select"]
    for key, val in base.items():
        args.extend([key, val])
    args.extend(["--feature", "point@0", "--feature", "point@10",
                 "--feature", "point@20", "--feature", "point@30"])
    return args


class TestSelectCommand:
    def test_pca_run_and_report_shape(self, tmp_path):
        _, curves = _synthetic_curves(tmp_path)
        out = tmp_path / "report.json"
        rc = main(_select_args(curves, str(out)))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["task"] == "pca"
        assert report["result"]["chosen"] is not None
        assert report["result"]["trace"]
        assert report["model_summary"]["eigenvalues"]
        assert report["config"]["search"]["seed"] == 11
        assert "timing" in report

    def test_same_seed_identical_report(self, tmp_path):
        _, curves = _synthetic_curves(tmp_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(_select_args(curves, str(out_a))) == 0
        assert main(_select_args(curves, str(out_b))) == 0
        rep_a, rep_b = json.loads(out_a.read_text()), json.loads(out_b.read_text())
        rep_a.pop("timing"), rep_b.pop("timing")
        assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)

    def test_seed_required_for_stochastic(self, tmp_path, capsys):
        _, curves = _synthetic_curves(tmp_path)
        args = [
            a for a in _select_args(curves, str(tmp_path / "r.json"))
            if a not in ("--seed", "11")
        ]
        rc = main(args)
        assert rc == 1
        assert "--seed is required" in capsys.readouterr().err

    def test_pure_exhaustive_needs_no_seed(self, tmp_path):
        _, curves = _synthetic_curves(tmp_path)
        out = tmp_path / "r.json"
        args = [
            a for a in _select_args(curves, str(out), **{"--d-max": "1"})
            if a not in ("--seed", "11")
        ]
        assert main(args) == 0

    def test_classification_task(self, tmp_path):
        sample, curves = _synthetic_curves(tmp_path, seed=5)
        labels = (sample.curves[:, 8] > 0).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        label_path = tmp_path / "labels.csv"
        label_path.write_text(
            "".join(f"{cid},{lab}\n" for cid, lab in zip(sample.ids, labels))
        )
        out = tmp_path / "report.json"
        rc = main(_select_args(
            curves, str(out), **{"--task": "classify", "--labels": str(label_path)}
        ))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["model_summary"]["kind"] == "nearest_centroid"
        assert report["result"]["value"]["rescaled"] <= 1.0

    def test_config_file_with_flag_override(self, tmp_path):
        _, curves = _synthetic_curves(tmp_path)
        cfg = {
            "task": "pca",
            "curves": curves,
            "features": ["point@0", "point@10", "point@20"],
            "search": {"epsilon_tol": 0.05, "d1": 1, "n_keep": 2,
                        "n_branch": 2, "r": 3, "d_max": 3, "seed": 4},
            "model": {"n_components": 2},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        rc = main(["select", "--config", str(cfg_path), "--r", "5",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["config"]["search"]["r"] == 5  # flag beats config
        assert report["config"]["search"]["seed"] == 4

    def test_n_branch_default_fits_small_menu(self, tmp_path, capsys):
        _, curves = _synthetic_curves(tmp_path)
        out = tmp_path / "r.json"
        args = ["select", "--task", "pca", "--curves", curves, "--r", "4",
                "--seed", "1", "--n-components", "2", "--out", str(out),
                "--feature", "point@0", "--feature", "point@10",
                "--feature", "point@20"]
        assert main(args) == 0
        report = json.loads(out.read_text())
        assert report["config"]["search"]["n_branch"] == 3  # min(5, p)
        assert main([*args, "--n1", "5"]) == 1  # explicit values stay strict
        assert "need 1 <= n_branch <= p, got 5" in capsys.readouterr().err

    def test_missing_file_is_error_exit(self, tmp_path, capsys):
        rc = main(_select_args(str(tmp_path / "nope.csv"), str(tmp_path / "r.json")))
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_report_replays_from_embedded_config(self, tmp_path):
        _, curves = _synthetic_curves(tmp_path)
        out_a = tmp_path / "a.json"
        assert main(_select_args(curves, str(out_a))) == 0
        rep_a = json.loads(out_a.read_text())

        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(rep_a["config"]))
        out_b = tmp_path / "b.json"
        assert main(["select", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        rep_b = json.loads(out_b.read_text())

        rep_a.pop("timing"), rep_b.pop("timing")
        assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)


class TestConsistencyCommand:
    def test_writes_table(self, tmp_path):
        cfg = {
            "grid": {"a": 0.0, "b": 1.0, "n_points": 31},
            "variances": [4.0, 1.0],
            "n_components": 2,
            "features": ["point@5", "point@20"],
            "subset": [0],
            "n_list": [40, 80],
            "reps": 2,
            "seed": 3,
        }
        cfg_path = tmp_path / "cons.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "table.csv"
        rc = main(["consistency", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "task,n,rep,h_n,h,abs_err"
        assert len(lines) == 5


class TestReportCommand:
    def test_trace_and_histogram_csvs(self, tmp_path, capsys):
        _, curves = _synthetic_curves(tmp_path)
        rep_a = tmp_path / "a.json"
        rep_b = tmp_path / "b.json"
        assert main(_select_args(curves, str(rep_a))) == 0
        assert main(_select_args(curves, str(rep_b), **{"--seed": "12"})) == 0
        trace_csv = tmp_path / "trace.csv"
        hist_csv = tmp_path / "hist.csv"
        rc = main([
            "report", str(rep_a), str(rep_b),
            "--trace-csv", str(trace_csv), "--hist-csv", str(hist_csv),
        ])
        assert rc == 0
        trace_lines = trace_csv.read_text().strip().splitlines()
        assert trace_lines[0] == "round,subset,raw,rescaled"
        assert len(trace_lines) > 1
        hist_lines = hist_csv.read_text().strip().splitlines()
        assert hist_lines[0] == "feature_index,label,count"
        assert "task=pca" in capsys.readouterr().out
