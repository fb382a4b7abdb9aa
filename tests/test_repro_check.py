"""``repro check``: every REP rule fires, every suppression is honoured.

Each rule gets a fixture proving (a) the violation is caught and (b) a
``# repro: allow[REPxxx]`` comment silences exactly that finding.  The
acceptance pins ride at the end: the checker exits 0 over the repo's own
``src/`` tree and 1 over a fixture tree violating each rule.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools import (
    ALL_RULES,
    RULES_BY_ID,
    UNUSED_SUPPRESSION,
    CheckError,
    check_paths,
    check_source,
    format_json,
    format_rule_listing,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv: str) -> int:
    return main(list(argv))


def write(tmp_path: Path, relpath: str, source: str) -> Path:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


# One fixture per rule: (relpath, violating source, suppressed source).
RULE_FIXTURES = {
    "REP001": (
        "mod.py",
        'import json\n\nblob = json.dumps({"a": 1})\n',
        'import json\n\nblob = json.dumps({"a": 1})  # repro: allow[REP001] scratch\n',
    ),
    "REP002": (
        "mod.py",
        "import random\n\nvalue = random.random()\n",
        "import random\n\nvalue = random.random()  # repro: allow[REP002] demo\n",
    ),
    "REP003": (
        "mod.py",
        "import time\n\nstamp = time.time()\n",
        "import time\n\nstamp = time.time()  # repro: allow[REP003] timing\n",
    ),
    "REP004": (
        "mod.py",
        "total = sum({1.0, 2.0, 3.0})\n",
        "total = sum({1.0, 2.0, 3.0})  # repro: allow[REP004] constants\n",
    ),
    "REP005": (
        "serve/daemon.py",
        "async def feed(self, key):\n"
        "    session = self.sessions[key]\n"
        "    session.counter = 1\n",
        "async def feed(self, key):\n"
        "    session = self.sessions[key]\n"
        "    session.counter = 1  # repro: allow[REP005] single-writer startup\n",
    ),
    "REP006": (
        "mod.py",
        "try:\n    x = 1\nexcept:\n    pass\n",
        "try:\n    x = 1\nexcept:  # repro: allow[REP006] prototype\n    pass\n",
    ),
    "REP007": (
        "mod.py",
        '__all__ = ["ghost"]\n',
        '__all__ = ["ghost"]  # repro: allow[REP007] lazy attr\n',
    ),
}


# ----------------------------------------------------------------------
# the rule set itself
# ----------------------------------------------------------------------
def test_rule_registry_is_complete():
    assert sorted(RULES_BY_ID) == sorted(RULE_FIXTURES)
    assert len(ALL_RULES) == 7
    listing = format_rule_listing()
    for rule_id in RULES_BY_ID:
        assert rule_id in listing
    assert UNUSED_SUPPRESSION in listing


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_fires(tmp_path, rule_id):
    relpath, bad, _ = RULE_FIXTURES[rule_id]
    write(tmp_path, relpath, bad)
    result = check_paths([tmp_path])
    assert [d.rule for d in result.diagnostics] == [rule_id]
    diagnostic = result.diagnostics[0]
    assert diagnostic.line > 0 and diagnostic.path.endswith(relpath)


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_allow_comment_silences_rule(tmp_path, rule_id):
    relpath, _, ok = RULE_FIXTURES[rule_id]
    write(tmp_path, relpath, ok)
    result = check_paths([tmp_path])
    assert result.ok, [d.render() for d in result.diagnostics]
    assert result.suppressed == 1


def test_standalone_allow_comment_covers_next_code_line(tmp_path):
    write(
        tmp_path,
        "mod.py",
        "import time\n"
        "\n"
        "# repro: allow[REP003] wall-clock wanted here: operator-facing banner\n"
        "# (second comment line between allow and code is fine)\n"
        "stamp = time.time()\n",
    )
    result = check_paths([tmp_path])
    assert result.ok and result.suppressed == 1


def test_unused_suppression_is_reported(tmp_path):
    write(tmp_path, "mod.py", "x = 1  # repro: allow[REP001] nothing here\n")
    result = check_paths([tmp_path])
    assert [d.rule for d in result.diagnostics] == [UNUSED_SUPPRESSION]
    assert "silences nothing" in result.diagnostics[0].message


def test_unknown_rule_in_suppression_is_reported(tmp_path):
    write(tmp_path, "mod.py", "x = 1  # repro: allow[REP999]\n")
    result = check_paths([tmp_path])
    assert [d.rule for d in result.diagnostics] == [UNUSED_SUPPRESSION]
    assert "unknown rule" in result.diagnostics[0].message


def test_prose_mentioning_allow_syntax_is_not_a_suppression(tmp_path):
    write(
        tmp_path,
        "mod.py",
        "#: docs say `# repro: allow[REP001]` silences a finding\nx = 1\n",
    )
    assert check_paths([tmp_path]).ok


# ----------------------------------------------------------------------
# rule scoping
# ----------------------------------------------------------------------
def test_tests_are_exempt(tmp_path):
    write(tmp_path, "tests/test_thing.py", "import random\n\nv = random.random()\n")
    assert check_paths([tmp_path]).ok


def test_obs_layer_may_read_wall_clock(tmp_path):
    write(tmp_path, "obs/clock.py", "import time\n\nstamp = time.time()\n")
    assert check_paths([tmp_path]).ok


def test_rep005_only_applies_to_the_daemon_module(tmp_path):
    source = "async def feed(self, key):\n    session = self.sessions[key]\n    session.n = 1\n"
    write(tmp_path, "other.py", source)
    assert check_paths([tmp_path]).ok


def test_rep005_locked_and_executor_writes_pass(tmp_path):
    write(
        tmp_path,
        "serve/daemon.py",
        "async def feed(self, key):\n"
        "    async with self._locks[key]:\n"
        "        self.sessions[key].counter = 1\n"
        "\n"
        "def worker_side(session):\n"
        "    session.counter = 2\n",
    )
    assert check_paths([tmp_path]).ok


def test_rep004_values_accumulation_gates_only_metric_export_layer(tmp_path):
    source = "def total(loads):\n    return sum(loads.values())\n"
    write(tmp_path, "plain/mod.py", source)
    assert check_paths([tmp_path]).ok
    write(tmp_path, "results/export.py", source)
    result = check_paths([tmp_path / "results"])
    assert [d.rule for d in result.diagnostics] == ["REP004"]


def test_rep004_set_loops_and_comprehensions_gate_every_layer(tmp_path):
    write(
        tmp_path,
        "solvers/mod.py",
        "def blend(a, b):\n"
        "    for key in set(a) | set(b):\n"
        "        print(key)\n"
        "    keys = [key for key in {*a, *b}]\n"
        "    total = sum(a[key] for key in set(a))\n"
        "    return keys, total\n",
    )
    result = check_paths([tmp_path])
    assert [(d.rule, d.line) for d in result.diagnostics] == [
        ("REP004", 2),
        ("REP004", 4),
        ("REP004", 5),
    ]
    write(
        tmp_path,
        "solvers/mod.py",
        "def blend(a, b):\n"
        "    for key in [*a, *b]:\n"
        "        print(key)\n"
        "    return [key for key in sorted({*a, *b})]\n",
    )
    assert check_paths([tmp_path]).ok


def test_rep007_catches_unexported_public_def(tmp_path):
    write(tmp_path, "mod.py", '__all__ = ["f"]\n\n\ndef f():\n    pass\n\n\ndef g():\n    pass\n')
    result = check_paths([tmp_path])
    assert [d.rule for d in result.diagnostics] == ["REP007"]
    assert "'g'" in result.diagnostics[0].message


def test_rep001_dynamic_sort_keys_and_splats_pass(tmp_path):
    write(
        tmp_path,
        "mod.py",
        "import json\n"
        "\n"
        "def dump(payload, flag, kwargs):\n"
        "    a = json.dumps(payload, sort_keys=flag)\n"
        "    b = json.dumps(payload, **kwargs)\n"
        "    return a, b\n",
    )
    assert check_paths([tmp_path]).ok


def test_rep002_seeded_constructors_pass(tmp_path):
    write(
        tmp_path,
        "mod.py",
        "import random\n"
        "import numpy as np\n"
        "\n"
        "rng = random.Random(7)\n"
        "gen = np.random.default_rng(7)\n",
    )
    assert check_paths([tmp_path]).ok


# ----------------------------------------------------------------------
# engine behaviour
# ----------------------------------------------------------------------
def test_rule_filter_narrows_reporting_not_accounting(tmp_path):
    write(
        tmp_path,
        "mod.py",
        "import json\nimport time\n\n"
        'blob = json.dumps({"a": 1})\n'
        "stamp = time.time()  # repro: allow[REP003] timing\n",
    )
    result = check_paths([tmp_path], rule_filter=["REP001"])
    assert [d.rule for d in result.diagnostics] == ["REP001"]
    # The REP003 suppression stayed "used" even though REP003 was filtered.
    assert result.suppressed == 1


def test_unknown_rule_filter_raises(tmp_path):
    with pytest.raises(CheckError, match="unknown rule"):
        check_paths([tmp_path], rule_filter=["REP123"])


def test_missing_path_raises():
    with pytest.raises(CheckError, match="no such file"):
        check_paths(["/does/not/exist"])


def test_syntax_error_is_located(tmp_path):
    write(tmp_path, "mod.py", "def broken(:\n")
    with pytest.raises(CheckError, match=r"mod\.py:1: syntax error"):
        check_paths([tmp_path])


def test_check_source_reports_and_counts(tmp_path):
    diagnostics, suppressed = check_source(
        'import json\nblob = json.dumps({"a": 1})\n', "mod.py"
    )
    assert [d.rule for d in diagnostics] == ["REP001"]
    assert suppressed == 0


def test_json_report_is_sorted_and_byte_stable(tmp_path):
    write(tmp_path, "mod.py", "import time\n\nstamp = time.time()\n")
    result = check_paths([tmp_path])
    blob = format_json(result)
    assert blob == format_json(check_paths([tmp_path]))
    payload = json.loads(blob)
    assert payload["ok"] is False
    assert payload["findings"][0]["rule"] == "REP003"
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == blob


# ----------------------------------------------------------------------
# CLI + acceptance pins
# ----------------------------------------------------------------------
def test_cli_exits_zero_on_repo_src(capsys):
    # The self-hosting gate: the repo's own src/ tree must stay clean
    # (zero unsuppressed diagnostics, zero unused suppressions).
    assert run_cli("check", str(REPO_ROOT / "src")) == 0
    assert "0 finding(s)" in capsys.readouterr().out


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_cli_exits_one_on_each_violation(tmp_path, capsys, rule_id):
    relpath, bad, _ = RULE_FIXTURES[rule_id]
    write(tmp_path, relpath, bad)
    assert run_cli("check", str(tmp_path)) == 1
    assert rule_id in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    relpath, bad, _ = RULE_FIXTURES["REP001"]
    write(tmp_path, relpath, bad)
    assert run_cli("check", "--format", "json", str(tmp_path)) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "REP001"


def test_cli_rule_filter_and_unknown_rule(tmp_path, capsys):
    write(tmp_path, "mod.py", "import time\n\nstamp = time.time()\n")
    assert run_cli("check", "--rule", "REP001", str(tmp_path)) == 0
    assert run_cli("check", "--rule", "REP123", str(tmp_path)) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert run_cli("check", "--list-rules") == 0
    out = capsys.readouterr().out
    assert "REP001" in out and "REP007" in out
