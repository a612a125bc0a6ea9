"""BENCHMARK.json passes the contract check, and the check sees damage."""

import json
from pathlib import Path

import pytest

from bench import manifest_check, run, workloads

ROOT = Path(__file__).resolve().parent.parent


def test_manifest_is_valid():
    assert manifest_check.problems(ROOT) == []


def test_stand_ins_are_the_metrics_a_workload_is_not_native_to():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    specific = {m["name"] for m in manifest["end_to_end"]} \
        - workloads.ALWAYS_NATIVE
    assert run.stand_ins("tc_wide") == specific
    assert run.stand_ins("maintain_mix") == \
        specific - {"insert_p50_ms", "delete_p50_ms"}
    assert not {"reopen_s", "write_p50_ms"} & run.stand_ins("durable_cycle")
    assert not {"ops_per_s", "read_p90_ms"} & run.stand_ins("orders_serve")


def test_p50_is_the_median_of_few_samples_and_the_middle_fifth_of_many():
    assert run.p50([3.0]) == 3.0
    assert run.p50([1.0, 2.0]) == 1.5
    assert run.p50([5.0, 1.0, 2.0]) == 2.0
    assert run.p50(range(1, 11)) == 5.5
    # Two clusters with the middle sample on the boundary between them.
    assert run.p50([10.0] * 35 + [20.0] * 35) == 15.0
    assert run.p50([10.0] * 38 + [20.0] * 32) == pytest.approx(10 + 10 * 4 / 14)


def test_a_run_reports_the_lower_quartile_of_its_units():
    assert run.lower_quartile([3.0]) == 3.0
    assert run.lower_quartile([2.7, 2.5, 3.9]) == 2.5
    assert run.lower_quartile([1.6, 1.5, 1.7, 2.4, 2.5, 1.4]) == 1.5
    # A burst over seven of twelve units leaves it on an undisturbed one.
    assert run.lower_quartile([0.7] * 5 + [1.2] * 7) == 0.7


def _damaged(tmp_path, change):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    change(manifest)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(manifest))
    return manifest_check.problems(tmp_path)


def test_check_sees_damage(tmp_path):
    def bad_name(m): m["per_layer"][0]["name"] = "has space"
    def extra_key(m): m["end_to_end"][1]["note"] = "x"
    def wide_bound(m): m["end_to_end"][1]["bound"] = 0.3
    def no_setup(m): m["end_to_end"][0]["name"] = "startup_s"
    def other_path(m): m["paths"] = ["bench/"]
    def dropped(m): del m["workloads"][0]
    def twice(m): m["per_layer"][1]["name"] = "wall_s"
    def too_long(m): m["run_seconds"] = 40
    def claim(m): m["claim"] = None
    def native_nowhere(m): m["end_to_end"][3]["name"] = "upsert_p50_ms"

    for change in (bad_name, extra_key, wide_bound, no_setup, other_path,
                   dropped, twice, too_long, claim, native_nowhere):
        assert _damaged(tmp_path, change), change.__name__
