"""The crash-triage vocabulary (:mod:`repro.crash.verdict`).

Pins the five ladder statuses, the eight campaign labels and the exact
(status x counter search x nested crash) -> label mapping, checks the
shared prefix rule, and guards that the vocabulary is declared in one
module only.
"""

from __future__ import annotations

import os
import re
from types import SimpleNamespace

import pytest

from repro.crash.verdict import (
    Outcome,
    Status,
    Verdict,
    covers,
    largest_matching_prefix,
    prefix_states,
    required_prefix,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: (status, via_search, nested) -> label, written out from the mapping
#: the campaign applied before the vocabulary had its own module.
LABELS = [
    ("consistent", False, False, "recovered"),
    ("consistent", False, True, "recovered-after-nested-crash"),
    ("consistent", True, False, "recovered-by-search"),
    ("consistent", True, True, "recovered-after-nested-crash"),
    ("detected", False, False, "detected"),
    ("detected", False, True, "detected-after-nested-crash"),
    ("detected", True, False, "detected"),
    ("detected", True, True, "detected-after-nested-crash"),
    ("detected-tree", False, False, "detected-by-tree"),
    ("detected-tree", False, True, "detected-after-nested-crash"),
    ("detected-tree", True, False, "detected-by-tree"),
    ("detected-tree", True, True, "detected-after-nested-crash"),
    ("silent", False, False, "silent-corruption"),
    ("silent", False, True, "silent-corruption"),
    ("silent", True, False, "silent-corruption"),
    ("silent", True, True, "silent-corruption"),
    ("crashed", False, False, "recovery-crashed"),
    ("crashed", False, True, "recovery-crashed"),
    ("crashed", True, False, "recovery-crashed"),
    ("crashed", True, True, "recovery-crashed"),
]


class TestVocabulary:
    def test_status_strings(self):
        assert [s.value for s in Status] == [
            "consistent", "detected", "detected-tree", "silent", "crashed",
        ]

    def test_outcome_strings(self):
        assert [o.value for o in Outcome] == [
            "recovered",
            "recovered-by-search",
            "recovered-after-nested-crash",
            "detected",
            "detected-by-tree",
            "detected-after-nested-crash",
            "silent-corruption",
            "recovery-crashed",
        ]

    def test_table_is_exhaustive(self):
        cells = {(status, search, nested) for status, search, nested, _ in LABELS}
        assert cells == {
            (s.value, search, nested)
            for s in Status
            for search in (False, True)
            for nested in (False, True)
        }

    @pytest.mark.parametrize("status,via_search,nested,label", LABELS)
    def test_label(self, status, via_search, nested, label):
        assert Outcome.of(Status(status), via_search, nested).value == label

    def test_clean_labels_are_the_recovered_ones(self):
        assert {o.value for o in Outcome if o.clean} == {
            "recovered", "recovered-by-search", "recovered-after-nested-crash",
        }


class TestPrefixRule:
    def test_prefix_states_apply_writes_in_order(self):
        history = [
            SimpleNamespace(writes=[(0, b"a", b"b")]),
            SimpleNamespace(writes=[(0, b"b", b"c"), (64, b"x", b"y")]),
        ]
        states = prefix_states({0: b"a"}, history)
        assert states == [{0: b"a"}, {0: b"b"}, {0: b"c", 64: b"y"}]

    def test_required_prefix_counts_acknowledged_commits(self):
        assert required_prefix(None, 100.0) == 0
        assert required_prefix([10.0, 20.0, 30.0], 5.0) == 0
        assert required_prefix([10.0, 20.0, 30.0], 20.0) == 2
        assert required_prefix([10.0, 20.0, 30.0], 99.0) == 3

    def test_largest_matching_prefix(self):
        zero = bytes(64)
        line = b"\x01" * 64
        states = [{}, {0: line}, {0: zero}]
        # The latest match wins; unwritten lines read as zero.
        assert largest_matching_prefix({0: zero}, [0], states) == 2
        assert largest_matching_prefix({0: line}, [0], states) == 1
        assert largest_matching_prefix({0: b"\x02" * 64}, [0], states) is None

    def test_covers(self):
        assert covers(3, 3)
        assert not covers(2, 3)
        assert not covers(None, 0)

    def test_problems_are_detected_then_silent(self):
        verdict = Verdict(detected=["d"], silent=["s"])
        assert verdict.problems == ["d", "s"]
        assert verdict.tenants == [] and not verdict.consistent


def _python_files():
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(root, name)


def test_vocabulary_is_declared_in_one_module():
    declared = {}
    deleted = (
        "ValidationVerdict",
        "TenantVerdict",
        "ServiceVerdict",
        "ShardFailureOutcome",
        "ShardFailureReport",
        "_classify_session",
    )
    for path in _python_files():
        with open(path) as handle:
            text = handle.read()
        for name in ("Outcome", "Status", "Verdict"):
            if re.search(r"^class %s\b" % name, text, re.MULTILINE):
                declared.setdefault(name, []).append(os.path.relpath(path, SRC))
        for name in deleted:
            assert name not in text, (name, path)
    expected = os.path.join("repro", "crash", "verdict.py")
    assert declared == {name: [expected] for name in ("Outcome", "Status", "Verdict")}
