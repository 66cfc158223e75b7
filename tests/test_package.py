import json
import pathlib

import twinfringe
from twinfringe.config import config_from_dict, config_to_dict, default_config

ROOT = pathlib.Path(__file__).resolve().parent.parent

# what every BENCH_*.json summary entry carries, so that records compare
BENCH_CORE = {"unit", "better", "bound", "parent", "change", "change_over_parent",
              "change_wins", "pairs", "within_bound"}


def test_public_names_are_unique_and_resolve():
    names = twinfringe.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(twinfringe, name)]
    assert not missing


def test_bench_records_share_one_summary_schema():
    metrics = {m["name"]: m for m in
               json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        summary = json.loads(path.read_text())["summary"]
        assert summary, path.name
        for name, entry in summary.items():
            where = f"{path.name}: {name}"
            assert not BENCH_CORE - set(entry), f"{where} lacks {sorted(BENCH_CORE - set(entry))}"
            spec = metrics[name.split(".", 1)[1]]
            assert (entry["unit"], entry["better"], entry["bound"]) == \
                (spec["unit"], spec["better"], spec["bound"]), where
            for side in ("parent", "change"):
                q = entry[side]
                assert q["q1"] <= q["median"] <= q["q3"], f"{where} {side}"


def _key_paths(doc, prefix=""):
    """The dotted path of every key in a JSON document's nested objects."""
    paths = set()
    for key, value in doc.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= _key_paths(value, f"{prefix}{key}.")
    return paths


def test_readme_example_config_loads_and_has_every_saved_key():
    section = (ROOT / "README.md").read_text().split("## Configuration\n", 1)[1]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    config_from_dict(example)
    assert _key_paths(example) == _key_paths(config_to_dict(default_config()))
