"""Regenerate the data files of every checked-in figure and sqrt-T config.

    python scripts/run_figures.py           # write out/fig*.csv, out/sqrtt_*.json
    python scripts/run_figures.py --check   # compare with out/, write nothing

Writes one file per config into out/ (created next to the repo root): for
configs/fig*.ini the `nvol smile` CSV, with the columns K,T,method,sigma_N,
flag, and for configs/sqrtt_*.ini the `nvol sqrt-t` JSON report.  With
--check the files are regenerated into a temporary directory and
byte-compared with out/; each file that differs is printed with its count
of differing rows, and the exit code is 1 if any differs.
"""

import argparse
import pathlib
import sys
import tempfile

from nvol.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "out"


def _output(cfg: pathlib.Path) -> tuple[str, list[str]]:
    """The output file name of a config and the nvol command that writes it."""
    if cfg.stem.startswith("sqrtt_"):
        return cfg.stem + ".json", ["sqrt-t", "--config", str(cfg)]
    return cfg.stem + ".csv", ["smile", "--config", str(cfg)]


def regenerate(configs, dest_dir: pathlib.Path) -> int:
    worst = 0
    for cfg in configs:
        name, argv = _output(cfg)
        dest = dest_dir / name
        print(f"{cfg.name} -> {dest}")
        rc = main(argv + ["--out", str(dest)])
        worst = max(worst, rc)
    return worst


def _read(path: pathlib.Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def differing_rows(a: bytes, b: bytes) -> int:
    """Lines that differ between two files, counting extra lines in either."""
    la, lb = a.splitlines(), b.splitlines()
    return sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))


def check(configs, expected_dir: pathlib.Path = OUT) -> int:
    """Regenerate `configs` into a temporary directory and byte-compare each
    file with its namesake in `expected_dir`; 1 if any differs."""
    with tempfile.TemporaryDirectory() as tmp:
        rc = regenerate(configs, pathlib.Path(tmp))
        n_diff = 0
        for cfg in configs:
            name, _ = _output(cfg)
            new, old = _read(pathlib.Path(tmp) / name), _read(expected_dir / name)
            if new != old:
                print(f"{name}: {differing_rows(old, new)} differing rows")
                n_diff += 1
    return rc or int(n_diff > 0)


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--check", action="store_true",
                    help="byte-compare regenerated files with out/ instead of writing them")
    args = ap.parse_args(argv)
    configs = [*sorted((ROOT / "configs").glob("fig*.ini")),
               *sorted((ROOT / "configs").glob("sqrtt_*.ini"))]
    if args.check:
        return check(configs)
    OUT.mkdir(exist_ok=True)
    return regenerate(configs, OUT)


if __name__ == "__main__":
    sys.exit(run())
