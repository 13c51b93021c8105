"""Documentation consistency: the docs must reference real artifacts."""

import pathlib
import re
import shlex

import pytest

from tests.helpers import shrunk

ROOT = pathlib.Path(__file__).parent.parent


class TestDocsExist:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"]
    )
    def test_file_present_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), f"{name} missing"
        assert len(path.read_text()) > 500


class TestBenchmarkIndex:
    def _bench_files(self):
        return {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}

    def test_design_references_real_benchmarks(self):
        text = (ROOT / "DESIGN.md").read_text()
        referenced = set(re.findall(r"benchmarks/(test_\w+\.py)", text))
        assert referenced, "DESIGN.md references no benchmarks"
        missing = referenced - self._bench_files()
        assert not missing, f"DESIGN.md references missing benches: {missing}"

    def test_every_figure_bench_indexed_in_design(self):
        text = (ROOT / "DESIGN.md").read_text()
        for bench in self._bench_files():
            if bench.startswith("test_fig") or bench.startswith("test_headline"):
                assert bench in text, f"{bench} not indexed in DESIGN.md"

    def test_readme_references_real_benchmarks(self):
        text = (ROOT / "README.md").read_text()
        referenced = set(re.findall(r"benchmarks/(test_\w+\.py)", text))
        missing = referenced - self._bench_files()
        assert not missing, f"README references missing benches: {missing}"

    def test_experiments_references_real_result_names(self):
        """EXPERIMENTS.md result names must match what benches record."""
        text = (ROOT / "EXPERIMENTS.md").read_text()
        referenced = set(re.findall(r"results/(\w+)\.txt", text))
        recorded = set()
        for bench in (ROOT / "benchmarks").glob("test_*.py"):
            recorded |= set(re.findall(r'record_result\(\s*"(\w+)"', bench.read_text()))
        missing = referenced - recorded
        assert not missing, f"EXPERIMENTS.md references unrecorded results: {missing}"


class TestExamplesIndexed:
    def test_readme_lists_every_example(self):
        text = (ROOT / "README.md").read_text()
        for example in (ROOT / "examples").glob("*.py"):
            assert example.stem in text, f"{example.name} not mentioned in README"


class TestEnvVarTable:
    """docs/MEMORY_MODEL.md owns the authoritative REPRO_* table.

    Both directions are enforced: every ``REPRO_*`` name used anywhere
    under ``src/`` must have a row in the table, and every row must
    correspond to a name the source actually reads — so the table can
    neither rot nor advertise dead knobs.
    """

    ENV_RE = re.compile(r"\bREPRO_[A-Z0-9_]+\b")

    def _documented(self):
        doc = ROOT / "docs" / "MEMORY_MODEL.md"
        assert doc.exists(), "docs/MEMORY_MODEL.md missing"
        rows = re.findall(r"^\|\s*`(REPRO_[A-Z0-9_]+)`", doc.read_text(), re.M)
        assert rows, "docs/MEMORY_MODEL.md has no REPRO_* table rows"
        return set(rows)

    def _in_source(self):
        names = set()
        for path in (ROOT / "src").rglob("*.py"):
            names |= set(self.ENV_RE.findall(path.read_text()))
        return names

    def test_every_source_env_var_is_documented(self):
        missing = self._in_source() - self._documented()
        assert not missing, (
            f"REPRO_* env vars used in src/ but absent from the "
            f"docs/MEMORY_MODEL.md table: {sorted(missing)}"
        )

    def test_every_documented_env_var_exists_in_source(self):
        stale = self._documented() - self._in_source()
        assert not stale, (
            f"docs/MEMORY_MODEL.md documents REPRO_* env vars no longer "
            f"used in src/: {sorted(stale)}"
        )

    def test_memory_model_is_linked_from_readme_and_design(self):
        for name in ("README.md", "DESIGN.md"):
            text = (ROOT / name).read_text()
            assert "docs/MEMORY_MODEL.md" in text, (
                f"{name} does not link docs/MEMORY_MODEL.md"
            )


class TestScenarioDocs:
    """docs/SCENARIOS.md owns the authoritative scenario-spec reference.

    Mirrors the ``REPRO_*`` table treatment: the spec-schema field
    table, the fault-model sections (names *and* parameter tables) and
    the bundled-spec cookbook are each enforced against the
    implementation in both directions, so the document can neither rot
    nor advertise schema that does not exist.
    """

    DOC = ROOT / "docs" / "SCENARIOS.md"

    def _text(self):
        assert self.DOC.exists(), "docs/SCENARIOS.md missing"
        return self.DOC.read_text()

    def _section(self, title):
        """The body of one ``## title`` section."""
        text = self._text()
        match = re.search(
            rf"^## {re.escape(title)}$(.*?)(?=^## |\Z)", text, re.M | re.S
        )
        assert match, f"docs/SCENARIOS.md has no '## {title}' section"
        return match.group(1)

    def test_schema_table_matches_dataclass(self):
        import dataclasses

        from repro.scenarios import CampaignSpec

        documented = set(
            re.findall(r"^\|\s*`([a-z_]+)`", self._section("Spec schema"), re.M)
        )
        actual = {field.name for field in dataclasses.fields(CampaignSpec)}
        assert documented == actual, (
            f"docs/SCENARIOS.md spec-schema table disagrees with "
            f"CampaignSpec: missing rows {sorted(actual - documented)}, "
            f"stale rows {sorted(documented - actual)}"
        )

    def test_fault_model_sections_match_registry(self):
        from repro.scenarios import FAULT_MODELS

        documented = set(
            re.findall(r"^### `([a-z0-9_]+)`", self._section("Fault models"), re.M)
        )
        actual = set(FAULT_MODELS)
        assert documented == actual, (
            f"docs/SCENARIOS.md fault-model sections disagree with the "
            f"registry: missing {sorted(actual - documented)}, "
            f"stale {sorted(documented - actual)}"
        )

    def test_fault_model_params_documented_both_directions(self):
        from repro.scenarios import FAULT_MODELS

        section = self._section("Fault models")
        chunks = re.split(r"^### `([a-z0-9_]+)`$", section, flags=re.M)
        bodies = dict(zip(chunks[1::2], chunks[2::2]))
        for name, info in FAULT_MODELS.items():
            rows = set(re.findall(r"^\|\s*`([a-z_]+)`", bodies[name], re.M))
            actual = set(info.params)
            assert rows == actual, (
                f"fault model {name!r}: documented parameter rows {sorted(rows)} "
                f"!= registry parameters {sorted(actual)}"
            )

    def test_bundled_cookbook_matches_spec_dir(self):
        from repro.scenarios import bundled_spec_names

        referenced = set(re.findall(r"specs/(\w+)\.yaml", self._text()))
        actual = set(bundled_spec_names())
        assert referenced == actual, (
            f"docs/SCENARIOS.md cookbook disagrees with "
            f"src/repro/scenarios/specs/: missing "
            f"{sorted(actual - referenced)}, stale "
            f"{sorted(referenced - actual)}"
        )

    def test_every_bundled_spec_parses(self):
        from repro.scenarios import bundled_spec_names, load_bundled

        for name in bundled_spec_names():
            assert load_bundled(name).specs

    def test_experiments_md_references_real_specs(self):
        from repro.scenarios import bundled_spec_names

        text = (ROOT / "EXPERIMENTS.md").read_text()
        referenced = set(re.findall(r"specs/(\w+)\.yaml", text))
        missing = referenced - set(bundled_spec_names())
        assert not missing, (
            f"EXPERIMENTS.md references missing scenario specs: {missing}"
        )

    def test_scenarios_doc_is_linked_from_readme(self):
        assert "docs/SCENARIOS.md" in (ROOT / "README.md").read_text()


class TestShardDocs:
    """The "Sharded & segmented runs" section tracks the shard module.

    Both directions, like the schema tables above: every entry of
    ``repro.scenarios.shard.RUN_LAYOUT`` must appear as a row of the
    run-directory table, every table row must name a real layout entry,
    and the CLI surface the section documents (``--shard``, ``merge``)
    must exist on the real parser.
    """

    DOC = ROOT / "docs" / "SCENARIOS.md"

    def _section(self):
        text = self.DOC.read_text()
        match = re.search(
            r"^## Sharded & segmented runs$(.*?)(?=^## |\Z)",
            text,
            re.M | re.S,
        )
        assert match, (
            "docs/SCENARIOS.md has no '## Sharded & segmented runs' section"
        )
        return match.group(1)

    def _documented_layout(self):
        rows = set(
            re.findall(r"^\s*\|\s*`([^`]+)`\s*\|", self._section(), re.M)
        )
        return rows - {"Path"}

    def test_layout_table_matches_run_layout_both_directions(self):
        from repro.scenarios.shard import RUN_LAYOUT

        documented = self._documented_layout()
        actual = set(RUN_LAYOUT)
        assert documented == actual, (
            f"docs/SCENARIOS.md run-layout table disagrees with "
            f"shard.RUN_LAYOUT: missing rows {sorted(actual - documented)}, "
            f"stale rows {sorted(documented - actual)}"
        )

    def test_documented_cli_surface_exists(self):
        from repro.cli import build_parser

        section = self._section()
        assert "--shard" in section and "repro merge" in section

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, __import__("argparse")._SubParsersAction)
        )
        assert "merge" in subparsers.choices
        scenario_opts = {
            option
            for action in subparsers.choices["scenarios"]._actions
            for option in action.option_strings
        }
        assert "--shard" in scenario_opts

    def test_shard_smoke_target_documented_and_wired(self):
        makefile = (ROOT / "Makefile").read_text()
        assert "shard-smoke:" in makefile
        assert "tests/test_shard_smoke.py tests/test_report_smoke.py" in makefile
        assert (ROOT / "tests" / "test_shard_smoke.py").exists()
        assert (ROOT / "tests" / "test_report_smoke.py").exists()
        assert "shard-smoke" in self._section() or "shard-smoke" in makefile


class TestFaultToleranceDocs:
    """docs/FAULT_TOLERANCE.md owns the supervision/chaos reference.

    Same treatment as the other schema tables: the cell-error-policy,
    failure-reason, failure-outcome and chaos-spec tables are each
    enforced against the implementation registries in both directions,
    and the CLI surface the document describes must exist on the real
    parser.
    """

    DOC = ROOT / "docs" / "FAULT_TOLERANCE.md"

    def _text(self):
        assert self.DOC.exists(), "docs/FAULT_TOLERANCE.md missing"
        return self.DOC.read_text()

    def _section(self, title):
        match = re.search(
            rf"^## {re.escape(title)}$(.*?)(?=^## |\Z)",
            self._text(),
            re.M | re.S,
        )
        assert match, f"docs/FAULT_TOLERANCE.md has no '## {title}' section"
        return match.group(1)

    def _rows(self, title):
        return set(
            re.findall(r"^\|\s*`([a-z_-]+)`", self._section(title), re.M)
        )

    def test_policy_table_matches_choices(self):
        from repro.core.executor import ON_CELL_ERROR_CHOICES

        documented = self._rows("Cell-error policies")
        actual = set(ON_CELL_ERROR_CHOICES)
        assert documented == actual, (
            f"cell-error-policy table: missing {sorted(actual - documented)}, "
            f"stale {sorted(documented - actual)}"
        )

    def test_reason_table_matches_registry(self):
        from repro.core.executor import FAILURE_REASONS

        documented = self._rows("Failure reasons")
        actual = set(FAILURE_REASONS)
        assert documented == actual, (
            f"failure-reason table: missing {sorted(actual - documented)}, "
            f"stale {sorted(documented - actual)}"
        )

    def test_outcome_schema_matches_fields(self):
        from repro.core.executor import FAILED_CELL_FIELDS

        documented = self._rows("Failure-outcome schema")
        actual = set(FAILED_CELL_FIELDS)
        assert documented == actual, (
            f"failure-outcome table: missing {sorted(actual - documented)}, "
            f"stale {sorted(documented - actual)}"
        )

    def test_chaos_spec_table_matches_fields(self):
        from repro.core.chaos import CHAOS_SPEC_FIELDS

        documented = self._rows("Chaos harness")
        actual = set(CHAOS_SPEC_FIELDS)
        assert documented == actual, (
            f"chaos-spec table: missing {sorted(actual - documented)}, "
            f"stale {sorted(documented - actual)}"
        )

    def test_documented_cli_surface_exists(self):
        import argparse

        from repro.cli import build_parser

        text = self._text()
        flags = ("--max-retries", "--cell-timeout", "--on-cell-error", "--chaos")
        for flag in flags:
            assert flag in text, f"docs/FAULT_TOLERANCE.md never mentions {flag}"

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for command in ("campaign", "scenarios"):
            options = {
                option
                for action in subparsers.choices[command]._actions
                for option in action.option_strings
            }
            missing = set(flags) - options
            assert not missing, f"repro {command} lacks {sorted(missing)}"

    def test_chaos_smoke_target_documented_and_wired(self):
        """`make chaos-smoke` runs the conformance matrix's chaos cases
        and their guards."""
        makefile = (ROOT / "Makefile").read_text()
        assert "chaos-smoke:" in makefile
        assert "tests/test_chaos_smoke.py tests/test_service.py" in makefile
        assert "tests/test_conformance.py -m chaos" in makefile
        assert "pytest.mark.chaos" in (ROOT / "tests" / "test_conformance.py").read_text()
        assert "chaos:" in (ROOT / "pytest.ini").read_text()
        assert "chaos-smoke" in self._text()

    def test_fault_tolerance_doc_is_linked(self):
        for name in ("README.md", "DESIGN.md"):
            text = (ROOT / name).read_text()
            assert "docs/FAULT_TOLERANCE.md" in text, (
                f"{name} does not link docs/FAULT_TOLERANCE.md"
            )


class TestResultsDocs:
    """docs/RESULTS.md owns the per-cell store / report reference.

    Same treatment as the other schema tables: the store-schema table
    (column names *and* kinds), the outcome-class table and the
    report-section table are each enforced against the constants in
    ``repro.results`` in both directions, and the CLI/Makefile surface
    the document describes must exist for real.
    """

    DOC = ROOT / "docs" / "RESULTS.md"

    def _text(self):
        assert self.DOC.exists(), "docs/RESULTS.md missing"
        return self.DOC.read_text()

    def _section(self, title):
        match = re.search(
            rf"^## {re.escape(title)}$(.*?)(?=^## |\Z)",
            self._text(),
            re.M | re.S,
        )
        assert match, f"docs/RESULTS.md has no '## {title}' section"
        return match.group(1)

    def _subsection(self, title):
        match = re.search(
            rf"^### {re.escape(title)}$(.*?)(?=^#{{2,3}} |\Z)",
            self._text(),
            re.M | re.S,
        )
        assert match, f"docs/RESULTS.md has no '### {title}' subsection"
        return match.group(1)

    def test_store_schema_table_matches_cell_columns(self):
        from repro.results import CELL_COLUMNS

        documented = dict(
            re.findall(
                r"^\|\s*`([a-z_]+)`\s*\|\s*(str|int|float)\s*\|",
                self._section("Store schema"),
                re.M,
            )
        )
        actual = {name: kind for name, (kind, _) in CELL_COLUMNS.items()}
        missing = set(actual) - set(documented)
        stale = set(documented) - set(actual)
        assert not missing and not stale, (
            f"docs/RESULTS.md store-schema table disagrees with "
            f"CELL_COLUMNS: missing rows {sorted(missing)}, "
            f"stale rows {sorted(stale)}"
        )
        wrong = {
            name: (documented[name], actual[name])
            for name in actual
            if documented[name] != actual[name]
        }
        assert not wrong, (
            f"docs/RESULTS.md store-schema kinds disagree with "
            f"CELL_COLUMNS (doc, code): {wrong}"
        )

    def test_outcome_table_matches_classes(self):
        from repro.results import OUTCOME_CLASSES

        documented = set(
            re.findall(
                r"^\|\s*`([a-z]+)`", self._subsection("Outcome classes"), re.M
            )
        )
        actual = set(OUTCOME_CLASSES)
        assert documented == actual, (
            f"docs/RESULTS.md outcome-class table disagrees with "
            f"OUTCOME_CLASSES: missing {sorted(actual - documented)}, "
            f"stale {sorted(documented - actual)}"
        )

    def test_section_table_matches_report_sections(self):
        from repro.results import REPORT_SECTIONS

        documented = set(
            re.findall(
                r"^\|\s*`([a-z]+)`", self._section("Report sections"), re.M
            )
        )
        actual = set(REPORT_SECTIONS)
        assert documented == actual, (
            f"docs/RESULTS.md report-section table disagrees with "
            f"REPORT_SECTIONS: missing {sorted(actual - documented)}, "
            f"stale {sorted(documented - actual)}"
        )

    def test_layout_paths_name_real_layout_entries(self):
        from repro.scenarios.shard import RUN_LAYOUT

        section = self._subsection("On-disk layout")
        for entry in (
            "store/cells.rcs",
            "shards/<i>-of-<N>/partial/cells.jsonl",
        ):
            assert entry in section, (
                f"docs/RESULTS.md on-disk layout never mentions {entry}"
            )
        # Unsharded runs no longer write a segment.
        assert "store/segment.jsonl" not in section
        assert "store/cells.rcs" in RUN_LAYOUT
        assert "shards/<i>-of-<N>/partial/cells.jsonl" in RUN_LAYOUT

    def test_documented_cli_surface_exists(self):
        import argparse

        from repro.cli import build_parser

        cookbook = self._section("CLI cookbook")
        for needle in ("repro report", "--bench", "--out"):
            assert needle in cookbook, (
                f"docs/RESULTS.md cookbook never mentions {needle}"
            )
        # Every run writes the store; there is no switch to skip it.
        assert "--no-store" not in cookbook

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert "report" in subparsers.choices
        report_opts = {
            option
            for action in subparsers.choices["report"]._actions
            for option in action.option_strings
        }
        assert {"--out", "--bench"} <= report_opts
        for command in ("scenarios", "merge"):
            options = {
                option
                for action in subparsers.choices[command]._actions
                for option in action.option_strings
            }
            assert "--no-store" not in options, (
                f"repro {command} still offers --no-store"
            )

    def test_results_doc_is_linked(self):
        for name in ("README.md", "DESIGN.md"):
            text = (ROOT / name).read_text()
            assert "docs/RESULTS.md" in text, (
                f"{name} does not link docs/RESULTS.md"
            )


class TestServiceDocs:
    """docs/SERVICE.md owns the campaign-as-a-service reference.

    Same treatment as the other schema tables: the endpoint table is
    enforced against ``repro.service.daemon.ROUTES`` and the
    memoization-key table against ``repro.service.keys.CACHE_KEY_FIELDS``
    in both directions, and the CLI/Makefile surface the document
    describes must exist for real.
    """

    DOC = ROOT / "docs" / "SERVICE.md"

    def _text(self):
        assert self.DOC.exists(), "docs/SERVICE.md missing"
        return self.DOC.read_text()

    def _section(self, title):
        match = re.search(
            rf"^## {re.escape(title)}$(.*?)(?=^## |\Z)",
            self._text(),
            re.M | re.S,
        )
        assert match, f"docs/SERVICE.md has no '## {title}' section"
        return match.group(1)

    def test_endpoint_table_matches_routes_both_directions(self):
        from repro.service import ROUTES

        documented = set(
            re.findall(
                r"^\|\s*`((?:GET|POST) /[^`]*)`", self._section("Endpoints"), re.M
            )
        )
        actual = set(ROUTES)
        assert documented == actual, (
            f"docs/SERVICE.md endpoint table disagrees with ROUTES: "
            f"missing rows {sorted(actual - documented)}, "
            f"stale rows {sorted(documented - actual)}"
        )

    def test_cache_key_table_matches_fields_both_directions(self):
        from repro.service import CACHE_KEY_FIELDS

        documented = set(
            re.findall(
                r"^\|\s*`([a-z_]+)`", self._section("Memoization key"), re.M
            )
        )
        actual = set(CACHE_KEY_FIELDS)
        assert documented == actual, (
            f"docs/SERVICE.md memoization-key table disagrees with "
            f"CACHE_KEY_FIELDS: missing rows {sorted(actual - documented)}, "
            f"stale rows {sorted(documented - actual)}"
        )

    def test_key_components_produce_exactly_the_documented_fields(self):
        """The key builder and the field registry cannot drift apart."""
        from repro.scenarios import ScenarioSuite, load_bundled
        from repro.service import CACHE_KEY_FIELDS, key_components
        from repro.service.daemon import CampaignService

        base = load_bundled("stuck_at_memory")
        suite = ScenarioSuite(
            name="docs-check", specs=tuple(shrunk(s) for s in base.specs)
        )
        from repro.scenarios.compile import ScenarioContext

        components = key_components(suite, ScenarioContext())
        assert set(components) == set(CACHE_KEY_FIELDS)
        assert CampaignService  # imported surface exists

    def test_documented_cli_surface_exists(self):
        import argparse

        from repro.cli import build_parser

        text = self._text()
        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for command in ("serve", "submit", "status", "fetch"):
            assert f"repro {command}" in text, (
                f"docs/SERVICE.md never mentions repro {command}"
            )
            assert command in subparsers.choices, f"repro {command} missing"

        serve_opts = {
            option
            for action in subparsers.choices["serve"]._actions
            for option in action.option_strings
        }
        documented_serve_flags = {
            "--root", "--host", "--port", "--workers", "--slots",
            "--queue-limit", "--smoke", "--max-retries", "--cell-timeout",
            "--on-cell-error", "--chaos",
        }
        missing = documented_serve_flags - serve_opts
        assert not missing, f"repro serve lacks {sorted(missing)}"
        for flag in ("--root", "--port", "--slots", "--queue-limit", "--smoke"):
            assert flag in text, f"docs/SERVICE.md never mentions {flag}"

        for command, flag in (("submit", "--wait"), ("fetch", "--out")):
            options = {
                option
                for action in subparsers.choices[command]._actions
                for option in action.option_strings
            }
            assert flag in options, f"repro {command} lacks {flag}"

    def test_serve_url_env_var_documented(self):
        from repro.service import URL_ENV_VAR

        assert URL_ENV_VAR == "REPRO_SERVE_URL"
        assert URL_ENV_VAR in self._text()
        assert URL_ENV_VAR in (ROOT / "docs" / "MEMORY_MODEL.md").read_text()

    def test_serve_smoke_target_documented_and_wired(self):
        makefile = (ROOT / "Makefile").read_text()
        assert "serve-smoke:" in makefile
        assert "tests/test_serve_smoke.py" in makefile
        assert (ROOT / "tests" / "test_serve_smoke.py").exists()
        assert "serve-smoke" in self._text()

    def test_service_doc_is_linked(self):
        for name in ("README.md", "DESIGN.md"):
            text = (ROOT / name).read_text()
            assert "docs/SERVICE.md" in text, (
                f"{name} does not link docs/SERVICE.md"
            )


class TestDocumentedCommands:
    """Every ``python -m repro …`` line in the docs parses (nothing runs).

    The docs are README, EXPERIMENTS, DESIGN, ``docs/*.md`` and every
    ``skills/*/SKILL.md`` under a hidden top-level directory.
    Backslash continuations are joined first; a ``<cmd>`` placeholder in
    the subcommand position is not a command and is skipped.
    """

    COMMAND_RE = re.compile(r"python -m repro (\w[^`\n]*)")

    def _commands(self):
        paths = [
            ROOT / "README.md",
            ROOT / "EXPERIMENTS.md",
            ROOT / "DESIGN.md",
            *sorted((ROOT / "docs").glob("*.md")),
            *sorted(ROOT.glob(".*/skills/*/SKILL.md")),
        ]
        return [
            (path.name, match.group(1))
            for path in paths
            for match in self.COMMAND_RE.finditer(
                path.read_text().replace("\\\n", " ")
            )
        ]

    def test_every_documented_command_parses(self, capsys):
        from repro.cli import build_parser

        commands = self._commands()
        assert len(commands) >= 30, commands
        failures = []
        for name, line in commands:
            try:
                build_parser().parse_args(shlex.split(line))
            except SystemExit:
                failures.append(f"{name}: python -m repro {line.strip()}")
        assert not failures, "\n".join(failures)


class TestPaperFigureCoverage:
    def test_all_paper_figures_have_bench(self):
        """Every evaluation figure of the paper maps to a bench file."""
        benches = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
        required = {
            "test_fig1b_alexnet_unprotected.py",
            "test_fig3_layerwise.py",
            "test_fig3_activation_distributions.py",
            "test_fig5_auc_vs_threshold.py",
            "test_fig6_finetune_trace.py",
            "test_fig7_alexnet.py",
            "test_fig8_vgg16.py",
            "test_headline_numbers.py",
        }
        assert required <= benches
