"""scripts/diff_bundles.py, which compares two trees of run bundles: only
a report's version, a run's completion time and the traces' seconds column
may differ."""
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_bundles.py"


@pytest.fixture(scope="module")
def diff_bundles():
    spec = importlib.util.spec_from_file_location("diff_bundles", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bundle(root: Path, version="0.1.0", completed_at="2026-01-01T00:00:00", seconds=("0.5", "0.25")):
    """One small bundle of each kind of file the script reads."""
    out = root / "exp-1d"
    out.mkdir(parents=True)
    report = {"experiment": "exp-1d", "metrics": {"tv": 0.0537, "mmd": 1.25e-3}, "version": version}
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    (out / "metadata.json").write_text(json.dumps({"completed_at": completed_at}, indent=2))
    (out / "trace.csv").write_text(
        "epoch,train_loss,seconds,phase\n"
        f"0,3.384177698092631,{seconds[0]},adam\n"
        f"1,2.1660281944266515,{seconds[1]},adam\n"
    )
    (out / "histogram_e_out.csv").write_text(
        "bin_index,model_probability\n0,0.04800370146319687\n1,0.06486506553147335\n"
    )
    return out


def _run(diff_bundles, capsys, a, b):
    code = diff_bundles.main([str(a), str(b)])
    return code, capsys.readouterr().out.split()


def test_the_three_ignored_fields_may_differ(diff_bundles, capsys, tmp_path):
    _bundle(tmp_path / "a")
    _bundle(tmp_path / "b", version="0.2.0+g1234", completed_at="2026-10-21T01:04:30", seconds=("0.7", "9"))
    assert _run(diff_bundles, capsys, tmp_path / "a", tmp_path / "b") == (0, [])


def test_one_changed_digit_in_a_histogram_differs(diff_bundles, capsys, tmp_path):
    _bundle(tmp_path / "a")
    hist = _bundle(tmp_path / "b") / "histogram_e_out.csv"
    hist.write_text(hist.read_text().replace("0.06486506553147335", "0.06486506553147336"))
    assert _run(diff_bundles, capsys, tmp_path / "a", tmp_path / "b") == (1, ["exp-1d/histogram_e_out.csv"])


def test_a_file_in_one_tree_only_differs(diff_bundles, capsys, tmp_path):
    _bundle(tmp_path / "a")
    (_bundle(tmp_path / "b") / "trace.csv").unlink()
    assert _run(diff_bundles, capsys, tmp_path / "a", tmp_path / "b") == (1, ["exp-1d/trace.csv"])
    assert _run(diff_bundles, capsys, tmp_path / "b", tmp_path / "a") == (1, ["exp-1d/trace.csv"])


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("report.json", "0.0537", "0.0538"),  # a metric
        ("report.json", '"experiment"', '"name"'),  # another key
        ("trace.csv", "2.1660281944266515", "2.1660281944266516"),  # a column beside seconds
        ("trace.csv", "seconds", "second"),  # no seconds column: byte for byte
        ("metadata.json", "}", ', "host": "a"}'),  # a key beside completed_at
    ],
)
def test_every_other_field_must_match(diff_bundles, capsys, tmp_path, name, old, new):
    _bundle(tmp_path / "a")
    path = _bundle(tmp_path / "b") / name
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new, 1))
    assert _run(diff_bundles, capsys, tmp_path / "a", tmp_path / "b") == (1, [f"exp-1d/{name}"])


def test_a_tree_equals_its_copy(diff_bundles, capsys, tmp_path):
    shutil.copytree(_bundle(tmp_path / "a").parent, tmp_path / "b")
    assert _run(diff_bundles, capsys, tmp_path / "a", tmp_path / "b") == (0, [])
