"""Golden-trace regression: blessed files, determinism, update path."""

import json

import pytest

from repro.verify import (
    GOLDEN_CASES,
    check_golden,
    compute_golden_record,
    golden_dir,
    serialize_record,
    update_golden,
)


class TestBlessedSuite:
    def test_blessed_directory_is_complete(self):
        d = golden_dir()
        missing = [
            n for n in GOLDEN_CASES if not (d / f"{n}.json").exists()
        ]
        assert not missing, (
            f"golden files missing for {missing}; "
            "run `amst verify --update-golden`"
        )

    def test_recomputation_matches_blessed_files(self):
        diffs = check_golden()
        assert not diffs, "\n".join(str(d) for d in diffs)

    def test_records_are_byte_stable_json(self):
        rec = compute_golden_record("paper-full")
        text = serialize_record(rec)
        # round-trips and re-serializes to the identical bytes
        assert serialize_record(json.loads(text)) == text

    def test_suite_covers_adversarial_shapes(self):
        # at least one multigraph/forest case and one baseline config
        assert "dup-forest-full" in GOLDEN_CASES
        assert any(
            not c.config.use_hdc for c in GOLDEN_CASES.values()
        ) or any(
            c.config.parallelism == 1 for c in GOLDEN_CASES.values()
        )


class TestDeterminism:
    def test_recomputing_twice_is_identical(self):
        a = serialize_record(compute_golden_record("rmat-full"))
        b = serialize_record(compute_golden_record("rmat-full"))
        assert a == b


class TestUpdateAndDrift:
    def test_update_then_check_roundtrip(self, tmp_path):
        names = ["paper-full", "dup-forest-nohdc"]
        written = update_golden(names, directory=tmp_path)
        assert sorted(p.name for p in written) == sorted(
            f"{n}.json" for n in names
        )
        assert check_golden(names, directory=tmp_path) == []

    def test_missing_file_is_reported(self, tmp_path):
        diffs = check_golden(["paper-full"], directory=tmp_path)
        assert len(diffs) == 1
        assert diffs[0].reason == "missing"
        assert "update-golden" in diffs[0].detail

    def test_drift_produces_unified_diff(self, tmp_path):
        update_golden(["paper-full"], directory=tmp_path)
        path = tmp_path / "paper-full.json"
        rec = json.loads(path.read_text())
        rec["report"]["dram_blocks"] += 1
        path.write_text(serialize_record(rec))
        diffs = check_golden(["paper-full"], directory=tmp_path)
        assert len(diffs) == 1
        assert diffs[0].reason == "changed"
        assert "dram_blocks" in diffs[0].detail
        assert "+" in diffs[0].detail and "-" in diffs[0].detail

    def test_env_var_overrides_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMST_GOLDEN_DIR", str(tmp_path))
        assert golden_dir() == tmp_path
        update_golden(["paper-full"])
        assert (tmp_path / "paper-full.json").exists()

    def test_unknown_case_raises(self):
        with pytest.raises(KeyError):
            compute_golden_record("no-such-case")
