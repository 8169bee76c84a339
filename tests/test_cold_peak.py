"""``tools/cold_peak.py``: the memory of one cold decomposition per grid, of the cold sweep and of a cold first request, in fresh interpreters."""

import importlib.util
import os
from pathlib import Path

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "cold_peak.py")
spec = importlib.util.spec_from_file_location("cold_peak", TOOL)
cold_peak = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cold_peak)


def test_prints_the_traced_peak_and_the_rss_rise_of_each_grid(capsys):
    import opscale

    checkout = Path(opscale.__file__).resolve().parent.parent.parent  # the package under test
    assert cold_peak.main(["64:ordinary", "64:centered", "--checkout", str(checkout)]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["n", "scheme", "traced_peak", "per_n2", "maxrss_rise_kib"]
    assert [row[:2] for row in rows] == [["64", "ordinary"], ["64", "centered"]]
    for _, _, peak, per_n2, rise in rows:
        assert int(peak) >= 16 * 64**2  # at least the complex generator itself
        assert float(per_n2) == round(int(peak) / 64**2, 2)
        assert int(rise) >= 0


def test_the_sweep_target_prints_the_peak_and_wall_time_with_and_without_the_helper(capsys):
    import opscale

    checkout = Path(opscale.__file__).resolve().parent.parent.parent
    assert cold_peak.main(["sweep", "--checkout", str(checkout)]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["sweep", "helper", "maxrss_kib", "wall_s"]
    assert [row[:2] for row in rows] == [["sweep", "on"], ["sweep", "off"]]
    for _, _, maxrss, wall in rows:
        assert int(maxrss) > 0 and float(wall) > 0


def test_the_first_target_prints_the_peak_and_wall_time_of_a_cold_request_at_n_1024(capsys):
    import opscale

    checkout = Path(opscale.__file__).resolve().parent.parent.parent
    assert cold_peak.main(["first", "--checkout", str(checkout)]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["first", "n", "scheme", "helper", "maxrss_kib", "wall_s"]
    assert [row[:4] for row in rows] == [["first", "1024", scheme, helper]
                                         for scheme in ("ordinary", "centered")
                                         for helper in ("on", "off")]
    for *_, maxrss, wall in rows:
        assert int(maxrss) > 0 and float(wall) > 0


@pytest.mark.parametrize("target", ["sweep", "first"])
def test_a_checkout_without_the_helper_switch_is_refused(tmp_path, capsys, target):
    # An opscale whose linalg has no _beside would run its "off" rows with
    # the helper: the tool exits non-zero, naming _beside, and prints no row.
    package = tmp_path / "src" / "opscale"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("ScalingSpec = scale_signal = None\n")
    (package / "cli.py").write_text("def main(argv):\n    return 0\n")
    (package / "linalg.py").write_text("_idle_helper = None\n")
    with pytest.raises(SystemExit, match="no _beside") as exc:
        cold_peak.main([target, "--checkout", str(tmp_path)])
    assert exc.value.code != 0
    assert capsys.readouterr().out.splitlines()[1:] == []
