import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
