"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_same_inputs():
    def stream(seed):
        return [gen.series(seed, "fit-batch", i, (2857, 2857)) for i in range(3)]

    assert stream(3) == stream(3)
    assert [text for text, _ in stream(3)] != [text for text, _ in stream(4)]


def test_inputs_have_the_recorded_properties():
    block = [gen.series(5, "render", i, (7200, 8800)) for i in range(gen.BLOCK)]
    for text, p in block:
        rows = text.splitlines()[1:]
        assert len(rows) == p.n_prices
        assert 7200 <= p.n_prices <= 8800
        assert sum(row.endswith(",null") for row in rows) == p.missing_count
        assert 0.04 <= p.jump_probability < 0.12
        assert 0.0 <= p.missing_fraction < 0.01
    # stratified: one draw from each eighth of each range per block
    for share in (
        [(p.n_prices - 7200) / 1601 for _, p in block],
        [(p.jump_probability - 0.04) / 0.08 for _, p in block],
        [p.missing_fraction / 0.01 for _, p in block],
    ):
        assert sorted(int(v * gen.BLOCK) for v in share) == list(range(gen.BLOCK))


def _perturb_grid_value(text: str, row: int) -> str:
    lines = text.split("\n")
    x, y, f = lines[row].split(",")
    lines[row] = f"{x},{y},{float(f) * (1 + 1e-6) + 1e-12!r}"
    return "\n".join(lines)


@pytest.fixture(scope="module")
def render(tmp_path_factory):
    w = workloads.Render(seed=1, out_dir=tmp_path_factory.mktemp("out"))
    w.setup()
    return w


def test_perturbed_grid_value_fails_the_full_check(render):
    files = dict(render.verified_plot)
    files["surface_trend.csv"] = _perturb_grid_value(files["surface_trend.csv"], 7)
    with pytest.raises(checks.CheckError):
        checks.plot_files(files, render.models, render.tables, render.GRID)


def test_perturbed_grid_value_counts_as_a_failed_op(render, monkeypatch):
    op = render.op

    def corrupted(inputs):
        dec, dec_csv, files, values = op(inputs)
        files = dict(files)
        files["surface_volatility.csv"] = _perturb_grid_value(
            files["surface_volatility.csv"], 3)
        return dec, dec_csv, files, values

    monkeypatch.setattr(render, "op", corrupted)
    m = render.loop(0.5)
    assert m.attempted >= 1
    assert m.failed == m.attempted
    assert not any(m.ok)


def test_unchanged_ops_pass(render):
    m = render.loop(0.5)
    assert m.attempted >= 1 and m.failed == 0


def test_self_time_subtracts_child_spans():
    spans = [["parent", 0.0, 10.0, None, 0],
             ["child", 1.0, 3.0, 0, 0],
             ["grandchild", 1.5, 2.0, 1, 0],
             ["child", 4.0, 5.0, 0, 0]]
    self_time, calls = tracer.summarize(spans)
    assert self_time == pytest.approx({"parent": 7.0, "child": 2.5, "grandchild": 0.5})
    assert calls["child"] == 2
