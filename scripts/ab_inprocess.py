"""In-process A/B timing of two source trees on the bundled PDE configs.

    python scripts/ab_inprocess.py --base REV --pairs N

Exports REV's src/nvol with `git archive` into a temporary directory and
loads it and this checkout's src/nvol side by side under two package names
(nvol imports its own modules relatively), plus REV's tree a second time
under a third name for an A/A control.  One pass runs every
configs/fig*.ini through `nvol smile` and every configs/sqrtt_*.ini through
`nvol sqrt-t`, in process and warm (one untimed pass per tree first).

Each round times one A/B pair (base, head) and one A/A pair (base, copy),
the first pass of each pair alternating between rounds.  Every pass must
write the same bytes as the base's, or the script stops with exit code 1.
It prints, for the pair ratios head / base and copy / base, the median
with a 95% distribution-free interval (order statistics of the binomial
sign test), the quartiles and how many pairs the second tree won.  A
speed-up is resolved when the A/B interval lies below 1 and the A/A
interval holds 1.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import math
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def export(rev: str, dest: pathlib.Path) -> pathlib.Path:
    """REV's src/nvol written under dest, from `git archive`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/nvol"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        for member in archive.getmembers():
            if member.isfile():
                path = dest / member.name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(archive.extractfile(member).read())
    return dest / "src" / "nvol"


def load_cli(name: str, package: pathlib.Path):
    """The `cli` module of the package at `package`, imported as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


def timed_pass(cli, configs, out_dir: pathlib.Path) -> tuple[float, dict]:
    """Seconds for one pass over `configs`, and the bytes each config wrote,
    its file and then what it printed."""
    printed = {}
    start = time.perf_counter()
    for cfg in configs:
        command = "sqrt-t" if cfg.stem.startswith("sqrtt_") else "smile"
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            rc = cli.main([command, "--config", str(cfg), "--out", str(out_dir / cfg.stem)])
        if rc != 0:
            raise SystemExit(f"{cli.__name__} exited {rc} on {cfg.name}")
        printed[cfg.stem] = stdout
    elapsed = time.perf_counter() - start
    return elapsed, {cfg.stem: (out_dir / cfg.stem).read_bytes()
                     + printed[cfg.stem].getvalue().encode() for cfg in configs}


def median_interval(ratios: list[float], level: float = 0.95) -> tuple[float, float, float]:
    """The median and the interval [x(k), x(n+1-k)] of the sorted ratios,
    with k the largest rank whose two binomial tails hold at most 1 - level
    (k = 1, the whole range, when n is too small for that level)."""
    xs, n = sorted(ratios), len(ratios)
    k, tail = 1, 0.5 ** n
    while tail + math.comb(n, k) * 0.5 ** n <= (1.0 - level) / 2.0:
        tail += math.comb(n, k) * 0.5 ** n
        k += 1
    return statistics.median(xs), xs[k - 1], xs[n - k]


def summary(label: str, ratios: list[float]) -> str:
    median, lo, hi = median_interval(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    won = sum(r < 1.0 for r in ratios)
    return (f"{label}: median {median:.3f}  95% [{lo:.3f}, {hi:.3f}]  "
            f"q1 {q1:.3f}  q3 {q3:.3f}  won {won}/{len(ratios)}")


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default="HEAD",
                    help="git revision to compare against (default HEAD)")
    ap.add_argument("--pairs", type=int, default=50,
                    help="rounds of pairs (at least 2; default 50)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    configs = [*sorted((ROOT / "configs").glob("fig*.ini")),
               *sorted((ROOT / "configs").glob("sqrtt_*.ini"))]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        try:
            package = export(args.base, tmp / "base")
        except subprocess.CalledProcessError as e:
            print(f"git archive {args.base}: {e.stderr.decode().strip()}", file=sys.stderr)
            return 2
        trees = {"base": load_cli("ab_base", package),
                 "head": load_cli("ab_head", ROOT / "src" / "nvol"),
                 "copy": load_cli("ab_copy", package)}
        for name in trees:
            (tmp / name).mkdir(exist_ok=True)
        # the untimed first pass of each tree, and the bytes all must write
        _, want = timed_pass(trees["base"], configs, tmp / "base")
        times = {name: [] for name in trees}

        def timed(name: str) -> float:
            elapsed, written = timed_pass(trees[name], configs, tmp / name)
            differ = [stem for stem in written if written[stem] != want[stem]]
            if differ:
                print(f"{name} and base write different bytes for {', '.join(differ)}",
                      file=sys.stderr)
                raise SystemExit(1)
            times[name].append(elapsed)
            return elapsed

        for name in ("head", "copy"):
            timed(name)
            times[name].clear()
        ab, aa = [], []
        for i in range(args.pairs):
            for other, ratios in (("head", ab), ("copy", aa)):
                order = ("base", other) if i % 2 == 0 else (other, "base")
                t = {name: timed(name) for name in order}
                ratios.append(t[other] / t["base"])
    print(f"{len(configs)} configs a pass, {args.pairs} rounds; base {args.base}, "
          f"head {ROOT / 'src' / 'nvol'}")
    print("pass medians: " + "  ".join(f"{name} {1e3 * statistics.median(ts):.1f} ms"
                                       for name, ts in times.items()))
    print(summary("A/B head/base", ab))
    print(summary("A/A copy/base", aa))
    return 0


if __name__ == "__main__":
    sys.exit(run())
