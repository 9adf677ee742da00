"""Report which CLI artifacts moved between a git revision and this checkout.

    python3 scripts/artifact_drift.py REV

runs ``RUNS`` (the five commands on the four shipped configs, each at its
config's own seed) on two trees: ``src/`` and ``configs/`` of REV, exported
with ``git archive`` into a temporary directory, and this checkout's own.
Each tree runs in a subprocess with its own ``src`` on ``PYTHONPATH``.  For
every artifact that differs it prints the largest absolute and relative
difference per CSV column and per JSON key, then "N of M moved".
``tests/test_artifact_digests.py`` pins the sha256 of the same runs' files.
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("fractional", "gamma", "monomial_sweep", "smooth")
COMMANDS = (("kernel-approx",), ("control",), ("simulate",), ("oracle",),
            ("convergence", "--n-list", "1,2,5,10,20"))
RUNS = [(cfg, cmd + (("--n", "1,2,5,10") if cfg == "monomial_sweep" and cmd == ("control",) else ()))
        for cfg in CONFIGS for cmd in COMMANDS]


def run_all(config_dir, out_dir) -> dict:
    """Run ``RUNS`` in process with the voctrl that is imported, writing
    under out_dir/<config>; {artifact path relative to out_dir: bytes}."""
    from voctrl.cli import main

    out_dir = Path(out_dir)
    with redirect_stdout(io.StringIO()):
        codes = [main(["--config", str(Path(config_dir) / f"{cfg}.ini"),
                       "--output-dir", str(out_dir / cfg), *args]) for cfg, args in RUNS]
    failed = [(cfg, " ".join(args), code) for (cfg, args), code in zip(RUNS, codes) if code != 0]
    if failed:
        raise RuntimeError(f"runs exited non-zero: {failed}")
    return _artifacts(out_dir)


def _artifacts(out_dir: Path) -> dict:
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _columns(name: str, data: bytes) -> dict:
    """{CSV column or JSON key: its values, in order} of one artifact."""
    if name.endswith(".json"):
        cols = {}

        def walk(key, obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(f"{key}.{k}" if key else k, v)
            elif isinstance(obj, list):
                for v in obj:
                    walk(key, v)
            else:
                cols.setdefault(key, []).append(obj)

        walk("", json.loads(data))
        return cols
    rows = [r for r in csv.reader(io.StringIO(data.decode())) if r and not r[0].startswith("#")]
    cols = {}
    for j, head in enumerate(rows[0]):  # path_1, path_2, .. are one column, path_*
        cols.setdefault(re.sub(r"_\d+$", "_*", head), []).extend(r[j] if j < len(r) else None
                                                                  for r in rows[1:])
    return cols


def _as_float(v):
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _diff(a, b) -> tuple[float, float] | None:
    """(max |a - b|, max |a - b| / max(|a|, |b|)) over one column, or None
    when a value that is not a number changed."""
    if len(a) != len(b):
        return None
    worst_abs = worst_rel = 0.0
    for x, y in zip(a, b):
        fx, fy = _as_float(x), _as_float(y)
        if fx is None or fy is None:
            if x != y:
                return None
            continue
        if fx == fy or (math.isnan(fx) and math.isnan(fy)):
            continue
        d = abs(fx - fy)
        if not math.isfinite(d):  # a nan, or an inf on one side only
            return math.inf, math.inf
        worst_abs = max(worst_abs, d)
        worst_rel = max(worst_rel, d / max(abs(fx), abs(fy)))
    return worst_abs, worst_rel


def report(old: dict, new: dict) -> list[str]:
    """Lines naming each artifact that differs, column by column, then "N of M moved"."""
    lines, moved = [], 0
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            moved += 1
            lines.append(f"{name}: only in {'the checkout' if name in new else 'REV'}")
            continue
        if old[name] == new[name]:
            continue
        moved += 1
        lines.append(f"{name}:")
        first = len(lines)
        a, b = _columns(name, old[name]), _columns(name, new[name])
        for col in sorted(a.keys() | b.keys()):
            d = _diff(a[col], b[col]) if col in a and col in b else None
            if d is None:
                lines.append(f"  {col}: changed (not numbers, or lengths differ)")
            elif d != (0.0, 0.0):
                lines.append(f"  {col}: max abs {d[0]:.3g}, max rel {d[1]:.3g}")
        if len(lines) == first:
            lines.append("  equal numbers, other bytes")
    lines.append(f"{moved} of {len(old.keys() | new.keys())} moved")
    return lines


def _run_tree(tree: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, __file__, "--run", str(tree), str(out)], env=env, check=True)
    return _artifacts(out)


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--run":  # the child: one tree's runs
        tree = Path(argv[1]).resolve()
        import voctrl

        if not Path(voctrl.__file__).resolve().is_relative_to(tree / "src"):
            raise RuntimeError(f"imported {voctrl.__file__}, not the tree's own src")
        run_all(tree / "configs", argv[2])
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tar = subprocess.run(["git", "archive", "--format=tar", argv[0], "src", "configs"],
                             cwd=ROOT, check=True, capture_output=True).stdout
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=tar, check=True)
        old = _run_tree(tmp / "rev", tmp / "out_rev")
        new = _run_tree(ROOT, tmp / "out_checkout")
    print("\n".join(report(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
