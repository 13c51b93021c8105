"""Tests for the command-line interface.

CLI commands run against a deliberately tiny override of the canonical
configs (monkeypatched EXPERIMENT_CONFIGS) so no full-size training runs.
"""

import json
import os

import pytest

import repro.experiments as experiments
from repro.cli import build_parser, main
from repro.models import ZooConfig

TINY = ZooConfig(
    model="lenet5",
    width_mult=1.0,
    n_train=200,
    n_val=100,
    n_test=80,
    epochs=2,
    seed=7,
)


@pytest.fixture(autouse=True)
def tiny_configs(monkeypatch):
    monkeypatch.setitem(experiments.EXPERIMENT_CONFIGS, "lenet5", TINY)


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_model_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "resnet"])


class TestCommands:
    def test_train(self, capsys):
        assert main(["train", "--model", "lenet5"]) == 0
        out = capsys.readouterr().out
        assert "clean test accuracy" in out

    def test_profile(self, capsys):
        assert main(["profile", "--model", "lenet5", "--images", "40"]) == 0
        out = capsys.readouterr().out
        assert "ACT_max" in out and "CONV-1" in out

    @pytest.mark.parametrize("images", ["0", "-3", "101"])
    def test_profile_images_outside_the_val_split_is_an_error(self, capsys, images):
        """TINY's val split holds 100 images: an empty or oversize
        profile set must not crash or silently profile fewer."""
        assert main(["profile", "--model", "lenet5", "--images", images]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: 'profile' wants {images} eval images but the val split "
            "holds 100\n"
        )

    def test_campaign_unprotected(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--model",
                    "lenet5",
                    "--trials",
                    "2",
                    "--eval-images",
                    "48",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "AUC =" in out and "fault_rate" in out

    def test_campaign_int8(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--model",
                    "lenet5",
                    "--variant",
                    "int8",
                    "--trials",
                    "2",
                    "--eval-images",
                    "48",
                ]
            )
            == 0
        )
        assert "int8" in capsys.readouterr().out

    @pytest.mark.parametrize("variant", ["relu6", "ecc", "dmr", "tmr"])
    def test_campaign_variants(self, capsys, variant):
        assert (
            main(
                [
                    "campaign",
                    "--model",
                    "lenet5",
                    "--variant",
                    variant,
                    "--trials",
                    "1",
                    "--eval-images",
                    "32",
                ]
            )
            == 0
        )
        assert variant in capsys.readouterr().out

    def test_layerwise(self, capsys):
        assert (
            main(
                [
                    "layerwise",
                    "--model",
                    "lenet5",
                    "--layers",
                    "CONV-1",
                    "--trials",
                    "1",
                    "--eval-images",
                    "32",
                ]
            )
            == 0
        )
        assert "CONV-1" in capsys.readouterr().out

    def test_bitpos(self, capsys):
        assert (
            main(
                [
                    "bitpos",
                    "--model",
                    "lenet5",
                    "--faults",
                    "4",
                    "--trials",
                    "1",
                    "--eval-images",
                    "32",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mean accuracy" in out

    def test_outcomes(self, capsys):
        assert (
            main(
                [
                    "outcomes",
                    "--model",
                    "lenet5",
                    "--trials",
                    "1",
                    "--eval-images",
                    "32",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "SDC" in out and "masked" in out


CAMPAIGN_ARGS = ["campaign", "--model", "lenet5", "--trials", "2",
                 "--eval-images", "32"]


def _direct_stdout(variant, mode, workers):
    """What `repro campaign` prints for CAMPAIGN_ARGS, from the direct API."""
    from repro.analysis.reporting import format_curve_table
    from repro.core.batched import AdaptiveCampaignTask
    from repro.core.campaign import CampaignConfig, run_campaign
    from repro.core.executor import CampaignExecutor, WeightFaultCellTask
    from repro.core.quantized import QuantizedCellTask, run_quantized_campaign
    from repro.hw.memory import WeightMemory

    bundle = experiments.experiment_bundle("lenet5")
    quantized = variant == "int8"
    model, sampler = experiments.prepare_campaign_variant(
        bundle, "unprotected" if quantized else variant
    )
    images, labels = bundle.test_set.arrays()
    parts = (model, WeightMemory.from_model(model), images[:32], labels[:32])
    config = CampaignConfig(
        fault_rates=experiments.paper_fault_rates(), trials=2, seed=42
    )
    adaptive = None
    if mode == "adaptive":
        base = (
            QuantizedCellTask(*parts, config)
            if quantized
            else WeightFaultCellTask(*parts, config=config, sampler=sampler)
        )
        task = AdaptiveCampaignTask(base, ci_halfwidth=0.1, batch_k=2)
        adaptive = CampaignExecutor(workers=workers).run_tasks([task])[0]
        curve = adaptive.curve
    elif quantized:
        curve = run_quantized_campaign(*parts, config, workers=workers)
    else:
        curve = run_campaign(*parts, config, sampler=sampler, workers=workers)
    lines = [
        format_curve_table(
            curve, title=f"lenet5 [{variant}]: accuracy vs fault rate"
        ),
        f"AUC = {curve.auc():.4f}",
    ]
    if adaptive is not None:
        lines.append(
            f"adaptive: executed {adaptive.cells_executed}/"
            f"{adaptive.cells_total} cells (skipped {adaptive.cells_skipped}); "
            f"max CI half-width {max(adaptive.halfwidths):.4f} "
            f"(tolerance {adaptive.tolerance:.4f})"
        )
    return "\n".join(lines) + "\n"


class TestCampaignCommand:
    """`repro campaign` runs a one-spec suite; its output is the direct API's."""

    @pytest.fixture(autouse=True)
    def shared_cache(self, tmp_path_factory, monkeypatch):
        """One trained TINY bundle for the whole class."""
        cache = tmp_path_factory.getbasetemp() / "cli-campaign-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "variant, mode",
        [("unprotected", "exact"), ("int8", "exact"), ("ecc", "adaptive"),
         ("int8", "adaptive")],
    )
    def test_stdout_is_the_direct_api(self, capsys, variant, mode, workers):
        argv = CAMPAIGN_ARGS + ["--variant", variant, "--mode", mode,
                                "--workers", str(workers)]
        if mode == "adaptive":
            argv += ["--ci-halfwidth", "0.1", "--batch-k", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == _direct_stdout(variant, mode, workers)

    def test_checkpoint_rerun_replays_every_cell(self, capsys, tmp_path):
        argv = CAMPAIGN_ARGS + ["--checkpoint", str(tmp_path / "sweep.jsonl"),
                                "--progress"]
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()
        assert main(argv) == 0
        second = capsys.readouterr().out.splitlines()
        progress = [line for line in second if line.startswith("[")]
        assert len(progress) == 7 * 2
        assert all(line.endswith(" (checkpointed)") for line in progress)
        table = [line for line in first if not line.startswith("[")]
        assert table == [line for line in second if not line.startswith("[")]

    def test_chaos_quarantine_prints_the_failed_cells(self, capsys):
        argv = CAMPAIGN_ARGS + ["--chaos", "raise=0.5,seed=3",
                                "--on-cell-error", "quarantine"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        block = out.split("cell(s) quarantined as failed outcomes:\n")[1]
        rows = block.splitlines()
        assert rows and all(
            row.startswith("  unprotected: rate_index=")
            and "reason=exception" in row
            for row in rows
        )
        assert "AUC = nan" in out

    def test_chaos_does_not_outlive_its_command(self, capsys):
        from repro.core.chaos import CHAOS_ENV_VAR

        before = os.environ.get(CHAOS_ENV_VAR)
        # Two workers: the policy must still reach the forked pool.
        argv = CAMPAIGN_ARGS + ["--workers", "2", "--chaos", "raise=1.0,seed=1",
                                "--on-cell-error", "quarantine"]
        assert main(argv) == 0
        assert "AUC = nan" in capsys.readouterr().out
        assert os.environ.get(CHAOS_ENV_VAR) == before
        assert main(CAMPAIGN_ARGS) == 0
        out = capsys.readouterr().out
        assert "quarantined" not in out and "AUC = nan" not in out

    @pytest.mark.parametrize("mode", ["exact", "adaptive"])
    @pytest.mark.parametrize(
        "flag, value, field",
        [("--batch-k", "-3", "batch_k"), ("--ci-halfwidth", "0.7", "ci_halfwidth")],
    )
    def test_adaptive_knobs_are_validated_in_both_modes(
        self, capsys, mode, flag, value, field
    ):
        assert main(CAMPAIGN_ARGS + ["--mode", mode, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and field in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--trials", "1"],
            ["layerwise", "--layers", "CONV-1", "--trials", "1"],
            ["bitpos", "--faults", "1", "--trials", "1"],
            ["outcomes", "--trials", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_oversize_eval_images_is_an_error(self, capsys, argv):
        """TINY's test split holds 80 images; asking for more must not
        silently evaluate on fewer."""
        assert main(argv + ["--model", "lenet5", "--eval-images", "500"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "wants 500 eval images but the test split holds 80" in (
            captured.err
        )


class TestScenariosCommand:
    def test_list_bundled(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7_alexnet" in out and "stuck_at_memory" in out

    def test_missing_spec_errors(self, capsys):
        assert main(["scenarios"]) == 2
        assert "bundled" in capsys.readouterr().err

    def test_unknown_bundled_name_errors(self, capsys):
        assert main(["scenarios", "not_a_spec"]) == 2
        assert "no bundled" in capsys.readouterr().err

    def test_missing_file_errors_cleanly(self, capsys, tmp_path):
        assert main(["scenarios", str(tmp_path / "nope.yaml")]) == 2
        assert "no such scenario file" in capsys.readouterr().err

    def test_invalid_spec_file_errors_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"name": "x", "campaign": "voltage"}]))
        assert main(["scenarios", str(path)]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_spec_its_split_cannot_serve_errors_cleanly(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps([{"name": "big", "eval_images": 500}]))
        assert main(["scenarios", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scenario 'big' wants 500 eval images but the test split "
            "holds 80\n"
        )

    def test_runs_spec_file_and_writes_results(self, capsys, tmp_path):
        spec = {
            "name": "cli-tiny",
            "defaults": {
                "model": "lenet5",
                "trials": 1,
                "eval_images": 16,
                "batch_size": 16,
                "rates": [1e-5, 1e-4],
            },
            "scenarios": [
                {"name": "t", "grid": {"campaign": ["weight", "quantized"]}}
            ],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec))
        out_dir = tmp_path / "out"
        assert (
            main(
                [
                    "scenarios",
                    str(path),
                    "--progress",
                    "--out",
                    str(out_dir),
                    "--checkpoint",
                    str(tmp_path / "ckpt.json"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "t/campaign=weight" in out and "t/campaign=quantized" in out
        assert "summary.json" in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["count"] == 2
        # Re-running resumes every cell from the checkpoint.
        assert main(["scenarios", str(path), "--checkpoint", str(tmp_path / "ckpt.json")]) == 0


class TestShardMergeCommands:
    def _spec_file(self, tmp_path):
        spec = {
            "name": "cli-shard",
            "defaults": {
                "model": "lenet5",
                "trials": 1,
                "eval_images": 16,
                "batch_size": 16,
                "rates": [1e-5, 1e-4],
            },
            "scenarios": [
                {"name": "t", "grid": {"campaign": ["weight", "quantized"]}}
            ],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec))
        return path

    def test_shard_requires_out(self, capsys, tmp_path):
        path = self._spec_file(tmp_path)
        assert main(["scenarios", str(path), "--shard", "1/2"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_shard_rejects_external_checkpoint(self, capsys, tmp_path):
        path = self._spec_file(tmp_path)
        code = main(
            [
                "scenarios", str(path), "--shard", "1/2",
                "--out", str(tmp_path / "run"),
                "--checkpoint", str(tmp_path / "ckpt.json"),
            ]
        )
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_bad_shard_string_errors_cleanly(self, capsys, tmp_path):
        path = self._spec_file(tmp_path)
        code = main(
            [
                "scenarios", str(path), "--shard", "5/2",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 2
        assert "shard" in capsys.readouterr().err

    def test_merge_of_empty_dir_errors_cleanly(self, capsys, tmp_path):
        assert main(["merge", str(tmp_path)]) == 2
        assert "shards" in capsys.readouterr().err

    def test_shard_then_merge_roundtrip(self, capsys, tmp_path):
        path = self._spec_file(tmp_path)
        run_dir = tmp_path / "run"
        for shard in ("2/2", "1/2"):
            assert (
                main(
                    [
                        "scenarios", str(path),
                        "--shard", shard, "--out", str(run_dir),
                    ]
                )
                == 0
            )
            assert f"shard {shard}" in capsys.readouterr().out
        assert main(["merge", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "merged 2 scenarios" in out and "summary.json" in out
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["count"] == 2
        assert {row["name"] for row in summary["scenarios"]} == {
            "t/campaign=weight",
            "t/campaign=quantized",
        }


class TestReportCommand:
    def _spec_file(self, tmp_path):
        spec = {
            "name": "cli-report",
            "defaults": {
                "model": "lenet5",
                "trials": 1,
                "eval_images": 16,
                "batch_size": 16,
                "rates": [1e-5, 1e-4],
            },
            "scenarios": [{"name": "t"}],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec))
        return path

    def test_report_renders_run_directory(self, capsys, tmp_path):
        from repro.results import REPORT_SECTIONS

        path = self._spec_file(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["scenarios", str(path), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["report", str(out_dir)]) == 0
        out = capsys.readouterr().out
        report = out_dir / "report.html"
        assert str(report) in out
        html = report.read_text()
        for section in REPORT_SECTIONS:
            assert f'<section id="{section}">' in html

    def test_report_honours_out_and_bench(self, capsys, tmp_path):
        path = self._spec_file(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["scenarios", str(path), "--out", str(out_dir)]) == 0
        bench = tmp_path / "bench"
        bench.mkdir()
        (bench / "BENCH_x.json").write_text(
            json.dumps(
                {
                    "benchmark": "x",
                    "history": [{"sha": "abc123", "wall_seconds": 1.5}],
                }
            )
        )
        target = tmp_path / "page.html"
        capsys.readouterr()
        assert (
            main(
                [
                    "report", str(out_dir),
                    "--out", str(target), "--bench", str(bench),
                ]
            )
            == 0
        )
        html = target.read_text()
        assert "abc123" in html and "wall_seconds" in html

    def test_report_without_run_errors_cleanly(self, capsys, tmp_path):
        assert main(["report", str(tmp_path)]) == 2
        assert "summary.json" in capsys.readouterr().err
