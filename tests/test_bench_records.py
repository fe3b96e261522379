"""The checked-in performance records: one BENCH_<workload>.json at the
repository root for each workload BENCHMARK.json declares, each a list of
entries that carry every field of the record."""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIELDS = {
    "pr", "commit", "protocol", "claim", "verdict", "python", "nproc",
    "run_seconds", "seeds", "pairs", "wins", "median", "iqr", "counters",
}
METRICS = {"cpu_s", "setup_s", "peak_rss_mb"}


def test_every_workload_has_a_record_whose_entries_carry_every_field():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    records = {p.name: json.loads(p.read_text()) for p in ROOT.glob("BENCH_*.json")}
    assert set(records) == {f"BENCH_{w}.json" for w in workloads}
    for name, entries in records.items():
        assert isinstance(entries, list) and entries, name
        for entry in entries:
            assert set(entry) == FIELDS, (name, entry.get("pr"))
            assert set(entry["median"]) == {"parent", "change"}
            for side in entry["median"].values():
                assert set(side) == METRICS
                assert all(isinstance(v, float) and v > 0.0 for v in side.values())
