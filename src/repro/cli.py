"""Command-line interface: ``python -m repro <command>``.

Wraps the canonical experiment setup so the paper's workflow is scriptable
without writing Python:

* ``train``     — train (or load from cache) a canonical network;
* ``profile``   — Step 1: per-layer activation statistics / ACT_max;
* ``harden``    — Steps 1-3: produce fine-tuned clipping thresholds;
* ``campaign``  — fault-injection sweep on the chosen variant;
* ``scenarios`` — run a declarative scenario file (or bundled spec) —
  every expanded scenario through one shared executor pool; ``--shard
  i/N`` executes one shard of an N-way split into a segmented run
  directory (see docs/SCENARIOS.md);
* ``merge``     — reassemble a sharded run directory into canonical
  merged results, byte-identical to the unsharded run;
* ``report``    — render a finished run directory into one static,
  self-contained HTML diagnostics page (see docs/RESULTS.md);
* ``layerwise`` — per-layer sensitivity analysis (paper Fig. 3);
* ``bitpos``    — bit-position sensitivity study;
* ``outcomes``  — masked / benign / SDC / DUE fault-outcome taxonomy;
* ``serve``     — long-lived campaign daemon with content-addressed
  result memoization (see docs/SERVICE.md);
* ``submit`` / ``status`` / ``fetch`` — thin HTTP client for a running
  daemon: post a spec, poll progress, materialize the finished run
  directory byte-identical to a direct ``scenarios`` run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]

_MODELS = ("lenet5", "alexnet", "vgg16")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    from repro.experiments import CAMPAIGN_VARIANTS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="FT-ClipAct (DATE 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default="lenet5", choices=_MODELS)

    def add_workers_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="campaign worker processes (0 = one per CPU core); results "
            "are bit-identical at any worker count",
        )

    def add_supervision_args(p: argparse.ArgumentParser) -> None:
        from repro.core.executor import ON_CELL_ERROR_CHOICES

        p.add_argument(
            "--max-retries",
            type=int,
            default=None,
            help="retries per cell before quarantine/abort (default 2, or "
            "REPRO_MAX_RETRIES); see docs/FAULT_TOLERANCE.md",
        )
        p.add_argument(
            "--cell-timeout",
            type=float,
            default=None,
            help="wall-clock seconds per cell before its dispatch is killed "
            "and retried (default: none, or REPRO_CELL_TIMEOUT)",
        )
        p.add_argument(
            "--on-cell-error",
            default=None,
            choices=ON_CELL_ERROR_CHOICES,
            help="what a cell exception does: abort re-raises (default, or "
            "REPRO_ON_CELL_ERROR), retry retries then quarantines, "
            "quarantine gives up immediately; quarantined cells become "
            "failed outcomes in results instead of killing the run",
        )
        p.add_argument(
            "--chaos",
            default=None,
            metavar="SPEC",
            help="deterministic fault injection into the executor itself "
            "(sets REPRO_CHAOS), e.g. 'kill=0.2,raise=0.1,seed=7' — a "
            "test/validation knob proving runs recover bit-identically "
            "(see docs/FAULT_TOLERANCE.md)",
        )

    p_train = sub.add_parser("train", help="train or load a canonical network")
    add_model_arg(p_train)
    p_train.add_argument("--retrain", action="store_true", help="ignore the cache")

    p_profile = sub.add_parser("profile", help="Step 1: activation statistics")
    add_model_arg(p_profile)
    p_profile.add_argument("--images", type=int, default=200)

    p_harden = sub.add_parser("harden", help="Steps 1-3: tuned clipping thresholds")
    add_model_arg(p_harden)
    add_workers_arg(p_harden)
    p_harden.add_argument("--json", dest="json_path", default=None,
                          help="write thresholds to this JSON file")

    p_campaign = sub.add_parser("campaign", help="fault-injection sweep")
    add_model_arg(p_campaign)
    add_workers_arg(p_campaign)
    p_campaign.add_argument(
        "--variant", default="unprotected", choices=CAMPAIGN_VARIANTS
    )
    p_campaign.add_argument("--trials", type=int, default=10)
    p_campaign.add_argument("--eval-images", type=int, default=200)
    p_campaign.add_argument("--seed", type=int, default=42)
    p_campaign.add_argument(
        "--checkpoint",
        default=None,
        help="append-only JSONL journal recording completed cells; "
        "re-running with the same configuration resumes the sweep",
    )
    p_campaign.add_argument(
        "--progress", action="store_true", help="print one line per completed cell"
    )
    p_campaign.add_argument(
        "--mode",
        default="exact",
        choices=("exact", "adaptive"),
        help="exact runs the full (rates x trials) grid; adaptive stops each "
        "rate's trial family once its accuracy confidence interval is tight "
        "enough (see docs/SCENARIOS.md)",
    )
    p_campaign.add_argument(
        "--ci-halfwidth",
        type=float,
        default=0.02,
        help="adaptive mode: stop a family once its CI half-width falls "
        "under this tolerance",
    )
    p_campaign.add_argument(
        "--batch-k",
        type=int,
        default=0,
        help="adaptive mode: trials per chunk between stopping checks "
        "(0 = the default chunk of 8; a negative width is an error); "
        "exact mode ignores it",
    )
    add_supervision_args(p_campaign)

    p_scenarios = sub.add_parser(
        "scenarios",
        help="run a declarative scenario spec file (see docs/SCENARIOS.md)",
    )
    p_scenarios.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="path to a YAML/JSON scenario file, or the name of a bundled "
        "spec (--list shows them)",
    )
    p_scenarios.add_argument(
        "--list", action="store_true", help="list bundled scenario specs"
    )
    p_scenarios.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes shared by every scenario in the matrix "
        "(0 = one per CPU core; default: the file's workers key, else 1); "
        "results are bit-identical at any worker count",
    )
    p_scenarios.add_argument(
        "--checkpoint",
        default=None,
        help="one append-only JSONL journal recording completed cells "
        "across ALL scenarios; re-running with the same spec resumes the "
        "whole matrix",
    )
    p_scenarios.add_argument(
        "--progress", action="store_true", help="print one line per completed cell"
    )
    p_scenarios.add_argument(
        "--out",
        default=None,
        help="directory for per-scenario result JSON files plus summary.json",
    )
    p_scenarios.add_argument(
        "--shard",
        default=None,
        metavar="i/N",
        help="execute only shard i of an N-way split (1-based) into the "
        "--out run directory; run the other shards on any hosts, then "
        "`repro merge <out>` (see docs/SCENARIOS.md)",
    )
    p_scenarios.add_argument(
        "--no-store",
        action="store_true",
        help="skip the per-cell result store (store/cells.rcs and the "
        "append-only segments; see docs/RESULTS.md)",
    )
    add_supervision_args(p_scenarios)

    p_merge = sub.add_parser(
        "merge",
        help="merge a sharded run directory into canonical results "
        "(see docs/SCENARIOS.md)",
    )
    p_merge.add_argument(
        "run_dir",
        help="run directory holding shards/<i>-of-<N>/ segments written "
        "by `repro scenarios --shard`",
    )
    p_merge.add_argument(
        "--no-store",
        action="store_true",
        help="skip reassembling the per-cell result store "
        "(see docs/RESULTS.md)",
    )

    p_report = sub.add_parser(
        "report",
        help="render a finished run directory into a static HTML "
        "diagnostics page (see docs/RESULTS.md)",
    )
    p_report.add_argument(
        "run_dir",
        help="run directory holding summary.json (an unsharded "
        "`repro scenarios --out` run or a `repro merge`d one)",
    )
    p_report.add_argument(
        "--out",
        default=None,
        help="output HTML file (default: <run_dir>/report.html)",
    )
    p_report.add_argument(
        "--bench",
        default=None,
        metavar="DIR",
        help="directory of BENCH_*.json per-SHA histories to diff "
        "against (e.g. benchmarks/results)",
    )

    p_layer = sub.add_parser("layerwise", help="per-layer sensitivity (Fig. 3)")
    add_model_arg(p_layer)
    add_workers_arg(p_layer)
    p_layer.add_argument("--layers", nargs="*", default=None)
    p_layer.add_argument("--trials", type=int, default=5)
    p_layer.add_argument("--eval-images", type=int, default=128)

    p_bitpos = sub.add_parser("bitpos", help="bit-position sensitivity study")
    add_model_arg(p_bitpos)
    p_bitpos.add_argument("--faults", type=int, default=20)
    p_bitpos.add_argument("--trials", type=int, default=5)
    p_bitpos.add_argument("--eval-images", type=int, default=128)

    p_outcomes = sub.add_parser(
        "outcomes", help="masked / benign / SDC / DUE taxonomy"
    )
    add_model_arg(p_outcomes)
    p_outcomes.add_argument("--trials", type=int, default=5)
    p_outcomes.add_argument("--eval-images", type=int, default=128)
    p_outcomes.add_argument("--seed", type=int, default=55)

    p_serve = sub.add_parser(
        "serve",
        help="run the campaign-as-a-service daemon (see docs/SERVICE.md)",
    )
    p_serve.add_argument(
        "--root",
        default="service-runs",
        help="directory of the on-disk result cache; each memoized "
        "campaign is an ordinary run directory under <root>/runs/<id>/",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8972,
        help="TCP port (0 = bind an ephemeral port; the chosen port is "
        "printed on startup)",
    )
    add_workers_arg(p_serve)
    p_serve.add_argument(
        "--slots",
        type=int,
        default=1,
        help="campaigns executing concurrently, one persistent warm "
        "executor pool each",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="queued campaigns beyond the running ones before new "
        "submissions are refused with 503",
    )
    p_serve.add_argument(
        "--smoke",
        action="store_true",
        help="serve with the tiny smoke_context() artifacts (synthetic "
        "data, one-epoch training) — a test/CI knob like --chaos",
    )
    add_supervision_args(p_serve)

    def add_url_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url",
            default=None,
            help="daemon URL (default: $REPRO_SERVE_URL, else "
            "http://127.0.0.1:8972)",
        )

    p_submit = sub.add_parser(
        "submit", help="submit a scenario spec to a running daemon"
    )
    p_submit.add_argument(
        "spec",
        help="path to a YAML/JSON scenario file, or the name of a "
        "bundled spec (`repro scenarios --list` shows them)",
    )
    add_url_arg(p_submit)
    p_submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until the campaign completes (exit 1 if it failed)",
    )
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up on --wait after this many seconds",
    )

    p_status = sub.add_parser(
        "status", help="poll a running daemon for campaign or service state"
    )
    p_status.add_argument(
        "id",
        nargs="?",
        default=None,
        help="a run id from `repro submit`; omitted, prints the daemon's "
        "/stats counters instead",
    )
    add_url_arg(p_status)

    p_fetch = sub.add_parser(
        "fetch",
        help="download a finished campaign into a local run directory, "
        "byte-identical to a direct `repro scenarios --out` run",
    )
    p_fetch.add_argument("id", help="a run id from `repro submit`")
    add_url_arg(p_fetch)
    p_fetch.add_argument(
        "--out",
        default=None,
        help="target run directory (default: ./<id>/)",
    )

    return parser


def _cell_progress_printer(show_label: bool = False):
    """One line per completed campaign cell (the --progress format).

    Shared by ``campaign`` and ``scenarios``; ``show_label`` prefixes
    the owning scenario's name in cross-campaign sweeps.
    """

    def progress(cell):
        resumed = " (checkpointed)" if cell.from_checkpoint else ""
        failed = " FAILED (quarantined)" if cell.failed else ""
        label = f"{cell.campaign_label} " if show_label else ""
        print(
            f"[{cell.completed}/{cell.total}] {label}"
            f"rate={cell.fault_rate:.2e} trial={cell.trial} "
            f"accuracy={cell.accuracy:.4f}{resumed}{failed}"
        )

    return progress


def _apply_chaos(args: argparse.Namespace) -> "int | None":
    """Validate ``--chaos`` and export it as ``REPRO_CHAOS``.

    Returns an exit code on a bad spec, ``None`` on success.  The spec
    travels by environment so worker processes (which re-read it in
    ``_run_task_cells``) see the same policy as the parent.
    """
    import os

    from repro.core.chaos import CHAOS_ENV_VAR, ChaosPolicy

    if args.chaos is None:
        return None
    try:
        ChaosPolicy.parse(args.chaos)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    os.environ[CHAOS_ENV_VAR] = args.chaos
    return None


def _report_quarantined(records) -> None:
    """Print one line per quarantined cell (failed outcomes)."""
    if not records:
        return
    print(f"{len(records)} cell(s) quarantined as failed outcomes:")
    for cell in records:
        error = f" ({cell['error']})" if cell.get("error") else ""
        print(
            f"  {cell['task']}: rate_index={cell['rate_index']} "
            f"trial={cell['trial']} reason={cell['reason']} "
            f"attempts={cell['attempts']}{error}"
        )


def _report_scenario_failures(results) -> None:
    """Surface per-scenario quarantined cells after a table print."""
    records = [
        dict(cell, task=result.name)
        for result in results
        for cell in getattr(result, "failed", ())
    ]
    _report_quarantined(records)


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENT_CONFIGS
    from repro.models import get_pretrained

    bundle = get_pretrained(
        EXPERIMENT_CONFIGS[args.model], retrain=args.retrain, verbose=True
    )
    source = "cache" if bundle.from_cache else "training"
    print(
        f"{args.model}: clean test accuracy {bundle.clean_accuracy:.4f} "
        f"({bundle.model.num_parameters()} parameters, from {source})"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.core.profiling import profile_activations
    from repro.data.dataset import Subset
    from repro.data.loader import DataLoader
    from repro.experiments import clone_model, experiment_bundle

    bundle = experiment_bundle(args.model)
    model = clone_model(bundle)
    subset = Subset(bundle.val_set, range(min(args.images, len(bundle.val_set))))
    profile = profile_activations(model, DataLoader(subset, batch_size=128))
    rows = [
        [layer, f"{s.mean:.4f}", f"{s.std:.4f}", f"{s.percentile(99):.4f}", f"{s.act_max:.4f}"]
        for layer, s in profile.stats.items()
    ]
    print(
        format_table(
            ["layer", "mean", "std", "p99", "ACT_max"],
            rows,
            title=f"{args.model}: activation profile over {profile.num_images} images",
        )
    )
    return 0


def _cmd_harden(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.experiments import (
        default_harden_config,
        experiment_bundle,
        hardened_clone,
    )

    bundle = experiment_bundle(args.model)
    _, thresholds, act_max = hardened_clone(
        bundle, default_harden_config(workers=args.workers)
    )
    rows = [
        [layer, f"{act_max[layer]:.4f}", f"{threshold:.4f}"]
        for layer, threshold in thresholds.items()
    ]
    print(
        format_table(
            ["layer", "ACT_max", "tuned T"],
            rows,
            title=f"{args.model}: FT-ClipAct thresholds",
        )
    )
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"thresholds": thresholds, "act_max": act_max}, handle, indent=2
            )
        print(f"thresholds written to {args.json_path}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_curve_table
    from repro.core.campaign import CampaignConfig
    from repro.core.executor import CampaignExecutor, WeightFaultCellTask
    from repro.core.quantized import QuantizedCellTask
    from repro.experiments import (
        experiment_bundle,
        paper_fault_rates,
        prepare_campaign_variant,
    )
    from repro.hw.memory import WeightMemory

    code = _apply_chaos(args)
    if code is not None:
        return code
    bundle = experiment_bundle(args.model)
    images, labels = bundle.test_set.arrays()
    images, labels = images[: args.eval_images], labels[: args.eval_images]
    config = CampaignConfig(
        fault_rates=paper_fault_rates(), trials=args.trials, seed=args.seed
    )
    # --workers threads into ftclipact's hardening step too: on a cold
    # cache Algorithm 1's fine-tuning campaigns dominate this command.
    model, sampler = prepare_campaign_variant(bundle, args.variant, args.workers)

    progress = _cell_progress_printer() if args.progress else None

    memory = WeightMemory.from_model(model)
    # Both modes build their cell task directly and run it through one
    # supervised executor, so --max-retries/--cell-timeout/--on-cell-error
    # (and REPRO_CHAOS) govern exact and adaptive sweeps alike.
    if args.variant == "int8":
        base = QuantizedCellTask(
            model, memory, images, labels, config, label=args.variant
        )
    else:
        base = WeightFaultCellTask(
            model, memory, images, labels, config=config,
            sampler=sampler, label=args.variant,
        )
    adaptive = None
    if args.mode == "adaptive":
        from repro.core.batched import AdaptiveCampaignTask

        task = AdaptiveCampaignTask(
            base,
            ci_halfwidth=args.ci_halfwidth,
            batch_k=args.batch_k,
            label=args.variant,
        )
    else:
        task = base
    executor = CampaignExecutor(
        workers=args.workers,
        progress=progress,
        checkpoint=args.checkpoint,
        max_retries=args.max_retries,
        cell_timeout=args.cell_timeout,
        on_cell_error=args.on_cell_error,
    )
    result = executor.run_tasks([task])[0]
    if args.mode == "adaptive":
        adaptive = result
        curve = adaptive.curve
    else:
        curve = result
    print(
        format_curve_table(
            curve, title=f"{args.model} [{args.variant}]: accuracy vs fault rate"
        )
    )
    print(f"AUC = {curve.auc():.4f}")
    _report_quarantined(executor.quarantined)
    if adaptive is not None:
        print(
            f"adaptive: executed {adaptive.cells_executed}/"
            f"{adaptive.cells_total} cells "
            f"(skipped {adaptive.cells_skipped}); max CI half-width "
            f"{max(adaptive.halfwidths):.4f} "
            f"(tolerance {adaptive.tolerance:.4f})"
        )
    return 0


def _load_suite_arg(spec: str):
    """Resolve a path-or-bundled-name argument into a loaded suite.

    Shared by ``scenarios`` (local execution) and ``submit`` (daemon
    submission) so both accept the same spec surface.  Returns
    ``(suite, None)`` on success or ``(None, exit_code)`` with the error
    already printed.
    """
    from pathlib import Path

    from repro.scenarios import bundled_spec_path, load_scenarios

    source = Path(spec)
    if not source.exists() and source.suffix == "":
        try:
            source = bundled_spec_path(spec)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return None, 2
    try:
        return load_scenarios(source), None
    except (FileNotFoundError, ValueError, ImportError) as error:
        print(f"error: {error}", file=sys.stderr)
        return None, 2


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.reporting import format_scenario_table
    from repro.scenarios import bundled_spec_names, run_scenarios

    if args.list:
        for name in bundled_spec_names():
            print(name)
        return 0
    if args.spec is None:
        print(
            "error: provide a scenario file or bundled spec name "
            "(--list shows bundled specs)",
            file=sys.stderr,
        )
        return 2
    suite, code = _load_suite_arg(args.spec)
    if suite is None:
        return code
    code = _apply_chaos(args)
    if code is not None:
        return code

    progress = _cell_progress_printer(show_label=True) if args.progress else None

    if args.shard is not None:
        from repro.scenarios import ShardSpec, run_scenario_shard

        if args.out is None:
            print(
                "error: --shard needs --out RUN_DIR (the segmented run "
                "directory shared by every shard)",
                file=sys.stderr,
            )
            return 2
        if args.checkpoint is not None:
            print(
                "error: --shard keeps its checkpoint inside the run "
                "directory; drop --checkpoint",
                file=sys.stderr,
            )
            return 2
        try:
            shard = ShardSpec.parse(args.shard)
            shard_dir = run_scenario_shard(
                suite,
                shard,
                args.out,
                workers=args.workers,
                progress=progress,
                max_retries=args.max_retries,
                cell_timeout=args.cell_timeout,
                on_cell_error=args.on_cell_error,
                store=not args.no_store,
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"shard {shard} of {suite.name!r} written to {shard_dir}")
        print(
            f"run the remaining shards, then: "
            f"python -m repro merge {args.out}"
        )
        return 0

    results = run_scenarios(
        suite,
        workers=args.workers,
        progress=progress,
        checkpoint=args.checkpoint,
        out_dir=args.out,
        max_retries=args.max_retries,
        cell_timeout=args.cell_timeout,
        on_cell_error=args.on_cell_error,
        store=not args.no_store,
    )
    print(
        format_scenario_table(
            results,
            title=f"{suite.name}: {len(results)} scenarios through one "
            "executor pool",
        )
    )
    _report_scenario_failures(results)
    if args.out:
        print(f"results written to {Path(args.out) / 'summary.json'}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.reporting import format_scenario_table
    from repro.scenarios import merge_run

    try:
        results = merge_run(args.run_dir, store=not args.no_store)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        format_scenario_table(
            results,
            title=f"merged {len(results)} scenarios from {args.run_dir}",
        )
    )
    _report_scenario_failures(results)
    print(f"merged results written to {Path(args.run_dir) / 'summary.json'}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.results import write_report

    try:
        target = write_report(args.run_dir, out=args.out, bench_dir=args.bench)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"report written to {target}")
    return 0


def _cmd_layerwise(args: argparse.Namespace) -> int:
    from repro.analysis.layerwise import run_layerwise_analysis
    from repro.analysis.reporting import format_rate, format_table
    from repro.core.campaign import CampaignConfig
    from repro.experiments import clone_model, experiment_bundle, paper_fault_rates

    bundle = experiment_bundle(args.model)
    model = clone_model(bundle)
    images, labels = bundle.test_set.arrays()
    images, labels = images[: args.eval_images], labels[: args.eval_images]
    config = CampaignConfig(
        fault_rates=paper_fault_rates(), trials=args.trials, seed=3
    )
    result = run_layerwise_analysis(
        model, images, labels, config, layers=args.layers or None,
        workers=args.workers,
    )
    rows = []
    cliffs = result.cliff_rates(drop=0.1)
    for layer in result.ordered_layers():
        means = result.curves[layer].mean_accuracies()
        rows.append(
            [
                layer,
                result.bits_per_layer[layer],
                f"{means[0]:.3f}",
                f"{means[-1]:.3f}",
                format_rate(cliffs[layer]),
            ]
        )
    print(
        format_table(
            ["layer", "bits", "acc@low", "acc@high", "cliff"],
            rows,
            title=f"{args.model}: per-layer resilience",
        )
    )
    return 0


def _cmd_bitpos(args: argparse.Namespace) -> int:
    from repro.analysis.bitpos import run_bit_position_study
    from repro.analysis.reporting import format_table
    from repro.experiments import clone_model, experiment_bundle
    from repro.hw.bits import bit_field

    bundle = experiment_bundle(args.model)
    model = clone_model(bundle)
    images, labels = bundle.test_set.arrays()
    images, labels = images[: args.eval_images], labels[: args.eval_images]
    result = run_bit_position_study(
        model, images, labels, n_faults=args.faults, trials=args.trials, seed=5
    )
    rows = [
        [int(position), bit_field(int(position)), f"{mean:.4f}"]
        for position, mean in zip(result.bit_positions, result.mean_by_position())
    ]
    print(
        format_table(
            ["bit", "field", "mean accuracy"],
            rows,
            title=(
                f"{args.model}: accuracy after flipping bit b of {args.faults} "
                f"weights (clean {result.clean_accuracy:.4f})"
            ),
        )
    )
    return 0


def _cmd_outcomes(args: argparse.Namespace) -> int:
    from repro.analysis.outcomes import run_outcome_analysis
    from repro.analysis.reporting import format_rate, format_table
    from repro.core.campaign import CampaignConfig
    from repro.experiments import clone_model, experiment_bundle, paper_fault_rates
    from repro.hw.memory import WeightMemory

    bundle = experiment_bundle(args.model)
    model = clone_model(bundle)
    images, labels = bundle.test_set.arrays()
    images, labels = images[: args.eval_images], labels[: args.eval_images]
    config = CampaignConfig(
        fault_rates=paper_fault_rates(), trials=args.trials, seed=args.seed
    )
    breakdown = run_outcome_analysis(
        model, WeightMemory.from_model(model), images, labels, config
    )
    rows = [
        [
            format_rate(row[0]),
            f"{row[1]:.3f}",
            f"{row[2]:.3f}",
            f"{row[3]:.3f}",
            f"{row[4]:.3f}",
        ]
        for row in breakdown.summary_rows()
    ]
    print(
        format_table(
            ["fault_rate", "masked", "benign", "SDC", "DUE"],
            rows,
            title=f"{args.model}: fault-outcome taxonomy",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service import CampaignService, serve

    code = _apply_chaos(args)
    if code is not None:
        return code
    context = None
    if args.smoke:
        from repro.scenarios import smoke_context

        context = smoke_context()
    service = CampaignService(
        args.root,
        context=context,
        workers=args.workers,
        slots=args.slots,
        queue_limit=args.queue_limit,
        max_retries=args.max_retries,
        cell_timeout=args.cell_timeout,
        on_cell_error=args.on_cell_error,
    )
    server = serve(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    # Parsed by clients and the smoke harness; keep the format stable.
    print(f"serving on http://{host}:{port}", flush=True)
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    pump = threading.Thread(target=server.serve_forever, daemon=True)
    pump.start()
    stop.wait()
    print("shutting down", flush=True)
    server.shutdown()
    pump.join()
    server.server_close()
    service.close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceClientError

    suite, code = _load_suite_arg(args.spec)
    if suite is None:
        return code
    payload = {
        "name": suite.name,
        "scenarios": [spec.to_dict() for spec in suite.specs],
    }
    client = ServiceClient(args.url)
    try:
        response = client.submit(payload)
        print(json.dumps(response, indent=1, sort_keys=True))
        if not args.wait:
            return 0
        status = client.wait(response["id"], timeout=args.timeout)
        print(json.dumps(status, indent=1, sort_keys=True))
        return 0 if status["state"] == "complete" else 1
    except (ServiceClientError, OSError, TimeoutError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceClientError

    client = ServiceClient(args.url)
    try:
        payload = client.stats() if args.id is None else client.status(args.id)
    except (ServiceClientError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceClientError

    client = ServiceClient(args.url)
    try:
        written = client.fetch(args.id, args.out or args.id)
    except (ServiceClientError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "profile": _cmd_profile,
    "harden": _cmd_harden,
    "campaign": _cmd_campaign,
    "scenarios": _cmd_scenarios,
    "merge": _cmd_merge,
    "report": _cmd_report,
    "layerwise": _cmd_layerwise,
    "bitpos": _cmd_bitpos,
    "outcomes": _cmd_outcomes,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "fetch": _cmd_fetch,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
