"""Fixture-driven tests for the array-contract pillar: the four static
rules pin exact messages and lines, and the runtime validator is exercised
against live contract-breaking arrays."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from repro.analysis import LintConfig, lint_paths, sanitized

FIXTURES = Path(__file__).parent / "fixtures"


def lint_array_fixture(name):
    """Lint one fixture with the array-hot scope pointed at it."""
    config = LintConfig(
        array_hot_paths=(f"*/fixtures/{name}.py",),
        raise_scope=("*/fixtures/*",),
    )
    return lint_paths([str(FIXTURES / f"{name}.py")], config)


def load_fixture_module(name):
    """Import a fixture file as a real module (so it can be instrumented)."""
    spec = importlib.util.spec_from_file_location(name, FIXTURES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# -- array-contract ----------------------------------------------------------


def test_array_contract_findings_pinned():
    report = lint_array_fixture("array_contract")
    assert [(f.line, f.message) for f in report.findings] == [
        (14, "`xs` is declared `float64[n]` but is assigned dtype int32 here"),
        (
            20,
            "wrong_return_dtype() declares `# returns: int64[n]` but "
            "returns dtype float64 here",
        ),
        (24, "bad array contract: no_such_parameter() has no parameter `ys`"),
        (29, "bad array contract: unknown dtype `floaty`"),
        (
            35,
            "`self._buf` is declared `float64[n]` but is assigned dtype "
            "float32 here",
        ),
    ]
    assert {f.rule for f in report.findings} == {"array-contract"}


def test_clean_contract_function_not_flagged():
    report = lint_array_fixture("array_contract")
    # clean() spans lines 6-9; nothing there may be flagged.
    assert not [f for f in report.findings if f.line < 12]


# -- hot-path-copy -----------------------------------------------------------


def test_hot_path_copy_findings_pinned():
    report = lint_array_fixture("hot_path_copy")
    assert [(f.line, f.rule) for f in report.findings] == [
        (7, "hot-path-copy"),
        (8, "hot-path-copy"),
        (11, "hot-path-copy"),
        (12, "hot-path-copy"),
        (13, "hot-path-copy"),
    ]
    messages = {f.line: f.message for f in report.findings}
    assert messages[7] == (
        "`astype(...)` copies even when the dtype already matches; "
        "pass `copy=False`"
    )
    assert messages[8].startswith("`np.append` copies the whole array")
    assert messages[11].startswith("`np.concatenate` inside a loop recopies")
    assert messages[12].startswith("`tolist()` materialises a Python list")
    assert messages[13].startswith("strided slice fed to `tobytes()`")


def test_hot_path_copy_silent_off_the_hot_paths():
    # Same fixture, default scope: the fixture is not an array-hot module.
    report = lint_paths([str(FIXTURES / "hot_path_copy.py")])
    assert report.clean


#: Lives under ``serving/wire.py`` so the wire-module patterns match it.
WIRE_FIXTURE = FIXTURES / "serving" / "wire.py"


def test_hot_path_copy_flags_payload_staging_on_wire_modules():
    report = lint_paths([str(WIRE_FIXTURE)])
    assert [(f.line, f.rule) for f in report.findings] == [
        (10, "hot-path-copy"),
        (11, "hot-path-copy"),
    ]
    messages = {f.line: f.message for f in report.findings}
    assert messages[10].startswith("`+` on a `.pack()`/`.tobytes()` result")
    assert messages[11].startswith('`b"".join(...)` stages the payload')
    # coalesced() carries pragmas on both lines; parts() sends parts and
    # joins only text, so nothing below line 11 is reported.
    assert report.suppressed == 2


def test_payload_staging_is_only_flagged_on_wire_modules(tmp_path):
    # The same source, array-hot but under a name no wire pattern matches.
    staging = tmp_path / "staging.py"
    staging.write_text(WIRE_FIXTURE.read_text())
    config = LintConfig(array_hot_paths=("*/staging.py",))
    report = lint_paths([str(staging)], config)
    assert report.clean


# -- dtype-churn -------------------------------------------------------------


def test_dtype_churn_findings_pinned():
    report = lint_array_fixture("dtype_churn")
    assert [(f.line, f.message) for f in report.findings] == [
        (
            8,
            "narrowing cast int64 -> int32 loses range silently; keep "
            "int64 or narrow explicitly at the boundary",
        ),
        (
            13,
            "silent fallback to dtype=object turns vectorised numpy into "
            "per-element Python; keep a numeric dtype",
        ),
    ]
    assert {f.rule for f in report.findings} == {"dtype-churn"}


# -- hot-path-alloc ----------------------------------------------------------


def test_hot_path_alloc_finding_pinned():
    report = lint_array_fixture("hot_path_alloc")
    assert [(f.line, f.rule, f.message) for f in report.findings] == [
        (
            9,
            "hot-path-alloc",
            "`np.zeros` allocates a fresh buffer every loop iteration; "
            "hoist the allocation out of the loop and reuse it",
        ),
    ]


# -- runtime validator -------------------------------------------------------


def test_runtime_contract_validator_catches_live_violations():
    module = load_fixture_module("contract_runtime")
    with sanitized(extra_modules=[module]) as sink:
        module.wants_float64(np.zeros(3, dtype=np.float32))
        module.wants_float64(np.zeros((2, 2)))
        module.paired(np.zeros(4), np.zeros(5))
        module.wants_contiguous(np.zeros((4, 6))[:, ::2])
        report = sink.report()
    by_message = sorted(f.message for f in report.findings)
    assert by_message == [
        "paired(): argument `ys` breaks `float64[n]`: dimension `n` is 5 "
        "here but 4 elsewhere in the call",
        "wants_contiguous(): argument `table` breaks "
        "`float64[r, c] contiguous`: not C-contiguous",
        "wants_float64(): argument `xs` breaks `float64[n]`: got dtype "
        "float32",
        "wants_float64(): argument `xs` breaks `float64[n]`: got rank 2",
        # The rank-2 call breaks the return contract too: asarray keeps rank.
        "wants_float64(): return value breaks `float64[n]`: got rank 2",
    ]
    assert {f.rule for f in report.findings} == {"runtime-array-contract"}
    # Findings anchor at the `def` line so one pragma suppresses both twins.
    lines = {f.message.split("(")[0]: f.line for f in report.findings}
    assert lines["wants_float64"] == 11
    assert lines["paired"] == 17
    assert lines["wants_contiguous"] == 23


def test_runtime_contract_clean_calls_report_nothing():
    module = load_fixture_module("contract_runtime")
    with sanitized(extra_modules=[module]) as sink:
        module.wants_float64(np.zeros(3))
        module.wants_float64([1.0, 2.0])  # lists pass through unchecked
        module.paired(np.zeros(4), np.zeros(4))
        module.wants_contiguous(np.zeros((4, 6)))
        report = sink.report()
    assert report.findings == []


def test_runtime_contract_pragma_suppresses_via_static_counterpart():
    module = load_fixture_module("contract_runtime")
    with sanitized(extra_modules=[module]) as sink:
        module.tolerated(np.zeros(2, dtype=np.float32))
        report = sink.report()
    assert report.findings == []
    assert report.suppressed >= 1


def test_runtime_wrappers_restored_after_disarm():
    module = load_fixture_module("contract_runtime")
    original = module.wants_float64
    with sanitized(extra_modules=[module]):
        assert module.wants_float64 is not original
    assert module.wants_float64 is original
