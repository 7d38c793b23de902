"""Golden-artifact gate: the six reference commands against tests/golden/.

The commands run twice in process; the two runs must agree byte for
byte (CSV, JSON and SVG), and the first must match the committed golden
record (see tests/golden/update.py, which also regenerates it).
"""

import copy

import pytest

from golden.update import CASES, collect, compare, load_golden, run_case


def test_golden_artifacts(tmp_path):
    problems = []
    for case, argv in CASES.items():
        runs = [tmp_path / f"{case}_{i}" for i in (1, 2)]
        codes = [run_case(argv, out) for out in runs]
        names = sorted(p.name for p in runs[0].iterdir())
        assert names == sorted(p.name for p in runs[1].iterdir()), case
        for name in names:
            if (runs[0] / name).read_bytes() != (runs[1] / name).read_bytes():
                problems.append(f"{case}/{name}: differs between reruns")
        assert codes[0] == codes[1], case
        got = collect(argv, runs[0], codes[0])
        problems += [f"{case}{line}" for line in compare(load_golden(case), got)]
    assert not problems, "\n".join(problems)


@pytest.fixture(scope="module")
def sweep_golden():
    return load_golden("sweep")


def test_comparator_rejects_small_change_in_one_sweep_column(sweep_golden):
    got = copy.deepcopy(sweep_golden)
    column = got["artifacts.json"]["csv"]["sweep.csv"]["columns"]["F_initial"]
    assert compare(sweep_golden, got) == []
    column["sum"] *= 1.0 + 1e-10
    diff = compare(sweep_golden, got)
    assert len(diff) == 1 and "F_initial/sum" in diff[0]


def test_comparator_rejects_renamed_key(sweep_golden):
    got = copy.deepcopy(sweep_golden)
    got["sweep.json"]["witnesses_differ"] = got["sweep.json"].pop("witnesses_distinct")
    diff = compare(sweep_golden, got)
    assert len(diff) == 2
    assert any("'witnesses_distinct' missing" in d for d in diff)
    assert any("'witnesses_differ' unexpected" in d for d in diff)


def test_comparator_tolerates_rounding_noise_only_in_noise_fields(sweep_golden):
    got = copy.deepcopy(sweep_golden)
    columns = got["artifacts.json"]["csv"]["sweep.csv"]["columns"]
    columns["max_torsion_dpsi"]["min"] += 5e-14
    assert compare(sweep_golden, got) == []
    columns["slope_A1"]["min"] += 5e-14
    assert len(compare(sweep_golden, got)) == 1
