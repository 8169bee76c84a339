"""``tools/cold_peak.py``: the memory of one cold decomposition per grid, and of the cold sweep, in fresh interpreters."""

import importlib.util
import os
from pathlib import Path

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
