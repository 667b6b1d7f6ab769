"""Every golden file in tests/data that this script owns, rebuilt and checked.

    PYTHONPATH=src python tests/goldens.py

``GOLDENS`` maps each golden's name to its file in tests/data and to the
function that rebuilds the file's text and asserts the counts that pin
it.  A ``.sha256`` file holds the sha256 of that text; any other file
holds the text itself.  The script prints one line per golden (name, ok
or FAILED, seconds, the sha256 of the rebuilt text), then a diff of each
file that differs or is missing, and exits 1 if any check failed.

To add a golden, add one entry and run the script at the commit whose
output it pins, before ``src/`` changes: the missing file's diff is what
to commit.  ``enum-9-16-p2`` runs the CLI in a child process, under a
5-minute timeout, and also asserts that the child's peak RSS (printed
before its line) stays under 50 MB: the lattice must be streamed, not
held in memory.
"""

import difflib
import io
import json
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

from traceforge.artin import enumerate_trace_ideals_artinian, semigroup_quotient, socle
from traceforge.cli import main as cli
from traceforge.fields import QQ
from traceforge.ideals import endomorphism_ring, maximal_ideal
from traceforge.semigroups import (NumericalSemigroup, arf_closure, canonical_value_set,
                                   enumerate_semigroups, value_set_condition)
from traceforge.trace import _probe_colons, enumerate_trace_ideals

DATA = Path(__file__).parent / "data"
PROBE_SAMPLES = tuple(map(Fraction, ("0", "1", "-2", "1/3", "7/5")))


def _cli(*argv) -> str:
    """What ``traceforge ARGV`` prints, run in this process; it must exit 0."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue()


# Run as ``python -c RSS_PROBE TIMEOUT ARGV...``: runs ARGV to exit 0 within
# TIMEOUT seconds and prints its peak RSS in MB (Linux counts ru_maxrss in KB).
RSS_PROBE = """\
import resource, subprocess, sys
subprocess.run(sys.argv[2:], check=True, stdout=subprocess.DEVNULL, timeout=float(sys.argv[1]))
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


def peak_rss_mb(argv, timeout) -> float:
    """The peak RSS in MB of ARGV, run to exit 0 within TIMEOUT seconds.

    On Linux a child's ru_maxrss starts at its parent's RSS at spawn, so
    ARGV is started by a fresh ``python -c RSS_PROBE`` wrapper, far smaller
    than ARGV, and not by this process, whose size it would report.
    """
    run = subprocess.run([sys.executable, "-c", RSS_PROBE, str(timeout), *argv],
                         stdout=subprocess.PIPE, text=True)
    assert run.returncode == 0, (argv, run.returncode)
    return float(run.stdout)


def _enum_json(gens, p, census=None, ideals=None, max_rss_mb=None) -> str:
    """The report ``trace enum GENS --p P --json`` writes; with MAX_RSS_MB,
    written by a child process whose peak RSS must stay below it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "enum.json")
        argv = ("trace", "enum", gens, "--p", str(p), "--json", str(path))
        if max_rss_mb is None:
            _cli(*argv)
        else:
            rss = peak_rss_mb([sys.executable, "-m", "traceforge.cli", *argv], timeout=300)
            print(f"trace enum {gens} --p {p}: peak RSS {rss:.1f} MB", flush=True)
            assert rss < max_rss_mb, "the lattice must be streamed, not held in memory"
        text = path.read_text()
    if census is not None:
        report = json.loads(text)
        assert (report["census"], len(report["trace_ideals"])) == (census, ideals), \
            (report["census"], len(report["trace_ideals"]))
    return text


def _survey(threads) -> str:
    """The sha256 of each file of ``survey --max-genus 7 --p 3 --seed 0``.

    A record file and ``run.json`` are hashed as their ``record`` object
    dumped with sorted keys (``run.json`` without ``config.out_dir``, and
    with ``config.threads`` set to 1, the one field that differs between
    worker counts); ``summary.csv`` as its bytes.
    """
    digests = {}
    with tempfile.TemporaryDirectory() as out:
        _cli("survey", "--max-genus", "7", "--p", "3", "--seed", "0",
             "--threads", str(threads), "--out", out)
        for path in sorted(Path(out).iterdir()):
            data = path.read_bytes()
            if path.suffix == ".json":
                record = json.loads(data)["record"]
                if path.name == "run.json":
                    config = record["config"]
                    assert config["threads"] == threads, config
                    del config["out_dir"]
                    config["threads"] = 1
                data = json.dumps(record, sort_keys=True).encode()
            digests[path.name] = sha256(data).hexdigest()
    return json.dumps(digests, indent=1, sort_keys=True) + "\n"


def _rows(X) -> list:
    return [r.to_json() for r in X.rows]


def probe_lines(genus) -> list:
    """R : R[g] for g = t^n + k t^(n+1) and each k in PROBE_SAMPLES, on
    every semigroup of genus <= GENUS with a probe exponent n."""
    lines = []
    for H in enumerate_semigroups(genus):
        n = value_set_condition(canonical_value_set(H)).witness
        if n is not None:
            lines += (json.dumps([H.text, n, str(k), T.tail, _rows(T)])
                      for k, T in zip(PROBE_SAMPLES, _probe_colons(H, n, PROBE_SAMPLES)))
    return lines


def _artin_lines(cases) -> list:
    """The label, p, dim and rows of each trace ideal of each R/c."""
    return [f"{label} {p} {I.dim} {I.rows}" for label, H, p in cases
            for I in enumerate_trace_ideals_artinian(semigroup_quotient(H, p))]


def _quotients(*cases) -> str:
    # the label is the generator tuple; one printed line per ideal
    lines = _artin_lines((gens, NumericalSemigroup.from_generators(gens), p)
                         for gens, p in cases)
    return "".join(line + "\n" for line in lines)


def _trace_enum_all_primes() -> str:
    # H, p, the census and each nonzero trace ideal's tail and rows
    lines, ideals = [], 0
    for p, genus in ((2, 8), (3, 7), (5, 6), (7, 5)):
        for H in enumerate_semigroups(genus):
            E = enumerate_trace_ideals(H, p)
            ideals += len(E.ideals)
            lines.append(json.dumps([H.text, p, E.census,
                                     [[I.ideal.tail, _rows(I.ideal)] for I in E.ideals]]))
    assert (len(lines), ideals) == (322, 3745), (len(lines), ideals)
    return "\n".join(lines)


def _joined(lines, count) -> str:
    assert len(lines) == count, (len(lines), count)
    return "\n".join(lines)


GOLDENS = {
    "enum-7-12-p2": ("enum-7-12-p2.sha256", lambda: _enum_json("7,8,9,10,11,12", 2)),
    "enum-6-10-p3": ("enum-6-10-p3.sha256", lambda: _enum_json("6,7,8,9,10", 3)),
    # 112 and 331 trace ideals with zero
    "enum-8-14-p2": ("enum-8-14-p2.sha256",
                     lambda: _enum_json("8,9,10,11,12,13,14", 2, census=29213, ideals=111)),
    "enum-8-14-p3": ("enum-8-14-p3.sha256",
                     lambda: _enum_json("8,9,10,11,12,13,14", 3, census=2052657, ideals=330)),
    # 195 trace ideals with zero
    "enum-9-16-p2": ("enum-9-16-p2.sha256", lambda: _enum_json(
        "9,10,11,12,13,14,15,16", 2, census=417200, ideals=194, max_rss_mb=50)),
    "sgp-info-300-301": ("sgp-info-300-301.sha256", lambda: _cli("sgp", "info", "300,301")),
    "artin-cli": ("artin-cli.sha256", lambda: "".join(
        _cli("artin", *args.split())
        for args in ("sq0 --p 3", "chain --l 9 --p 2", "gor4 --p 7", "gor4 --rationals"))),
    # 2826 and 2665 ideals
    "artin-quotients": ("artin-quotients.sha256",
                        lambda: _quotients(((7, 8, 9, 10, 11, 12), 2), ((6, 7, 8, 9, 10), 3))),
    # m^2 is not inside c, so m/m^2 is spanned by fewer basis elements than m
    "artin-quotients-m2": ("artin-quotients-m2.sha256", lambda: _quotients(
        ((5, 7), 2), ((4, 9), 2), ((5, 6), 3), ((5, 7, 8, 9), 2), ((4, 6, 9), 3),
        ((3, 7), 5), ((4, 5), 3))),
    "artin-traces-g7": ("artin-traces-g7.sha256", lambda: _joined(_artin_lines(
        (H.text, H, p) for H in enumerate_semigroups(7) if H.genus for p in (2, 3)), 628)),
    "artin-traces-p5-p7": ("artin-traces-p5-p7.sha256", lambda: _joined(_artin_lines(
        (H.text, H, p) for p, genus in ((5, 6), (7, 5))
        for H in enumerate_semigroups(genus) if H.genus), 250)),
    "trace-enum-all-primes": ("trace-enum-all-primes.sha256", _trace_enum_all_primes),
    "probe-colons-g8": ("probe-colons-g8.sha256",
                        lambda: _joined(probe_lines(8), 66 * len(PROBE_SAMPLES))),
    "probe-colons-g10": ("probe-colons-g10.sha256",
                         lambda: _joined(probe_lines(10), 262 * len(PROBE_SAMPLES))),
    "endomorphism-rings-g10": ("endomorphism-rings-g10.sha256", lambda: _joined(
        [json.dumps([H.text, E.tail, _rows(E)]) for H in enumerate_semigroups(10)
         for E in (endomorphism_ring(maximal_ideal(QQ, H)),)], 478)),
    "artin-socles-g7": ("artin-socles-g7.sha256", lambda: _joined(
        [f"{H.text} {p} {socle(semigroup_quotient(H, p)).rows}"
         for H in enumerate_semigroups(7) if H.genus for p in (2, 3)], 176)),
    # the tree in stream order, and each semigroup beside its Arf closure
    "genus-tree-g16": ("genus-tree-g16.sha256",
                       lambda: _joined([H.text for H in enumerate_semigroups(16)], 11770)),
    "arf-closures-g14": ("arf-closures-g14.sha256", lambda: _joined(
        [f"{H.text} {arf_closure(H).text}" for H in enumerate_semigroups(14)], 4107)),
    "survey-g7-p3-seed0": ("survey-g7-p3-seed0.json", lambda: _survey(1)),
    "survey-g7-p3-seed0-threads2": ("survey-g7-p3-seed0.json", lambda: _survey(2)),
}


def check(name, file, build) -> bool:
    """Rebuild one golden, print its line and any diff, and say if it matched."""
    t0 = time.perf_counter()
    try:
        text = build()
    except (Exception, SystemExit) as exc:
        print(f"{name:<28} FAILED {time.perf_counter() - t0:6.1f}s  "
              f"{type(exc).__name__}: {exc}", flush=True)
        return False
    digest = sha256(text.encode()).hexdigest()
    want = digest + "\n" if file.endswith(".sha256") else text
    path = DATA / file
    found = path.read_text() if path.exists() else None
    ok = found == want
    print(f"{name:<28} {'ok' if ok else 'FAILED':<6} {time.perf_counter() - t0:6.1f}s  {digest}",
          flush=True)
    if not ok:
        print(f"  tests/data/{file} is missing" if found is None else f"  tests/data/{file} differs")
        sys.stdout.writelines(difflib.unified_diff((found or "").splitlines(True),
                                                   want.splitlines(True), file, name))
    return ok


def main() -> int:
    failed = sum(not check(name, file, build) for name, (file, build) in GOLDENS.items())
    print(f"{len(GOLDENS) - failed} of {len(GOLDENS)} goldens ok", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
