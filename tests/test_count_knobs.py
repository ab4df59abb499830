import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "count_knobs.py"

PACKAGE = '''
from dataclasses import dataclass


def public(a, b=1, *, c=2):  # two knobs
    return a + b + c


def _private(x=1):  # private: not counted
    return x


class Widget:
    def __init__(self, size=3):  # dunder methods are public: one knob
        self.size = size


@dataclass
class Settings:
    name: str
    depth: int = 4  # one knob


class _Hidden:
    class Inner:  # nested in a private class: not counted
        def tune(self, level=5):
            return level
'''


def test_count_knobs_on_a_synthetic_package(tmp_path):
    (tmp_path / "mod.py").write_text(PACKAGE)
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "4\n"
