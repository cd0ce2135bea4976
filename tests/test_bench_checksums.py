"""The seeded fits' log-likelihoods stay those of the latest BENCH_*.json.

scripts/bench_record.py writes the file with its checksums: the
log-likelihoods of fit_mle on the 26 marginal samples of perfbench/gen.py
and of the UNB, NB and UP regressions on its NMES-shaped datasets 0-5.  A
move above bench_record.CHECKSUM_RTOL (1e-9 relative) is a change of
behaviour; a change that makes one on purpose records a new file.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import bench_record  # noqa: E402


def latest_bench() -> Path:
    return max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))


def test_checksums_match_the_latest_bench_file():
    path = latest_bench()
    recorded = json.loads(path.read_text())["checksums"]
    assert len(recorded) == 26 + 18
    moved = bench_record.moved(recorded, bench_record.checksums())
    assert not moved, f"{path.name}: {moved}"


def test_a_move_past_the_tolerance_is_caught():
    recorded = json.loads(latest_bench().read_text())["checksums"]
    name = next(iter(recorded))
    for rel, caught in ((2e-9, True), (-2e-9, True), (5e-10, False)):
        now = dict(recorded, **{name: recorded[name] * (1.0 + rel)})
        assert bool(bench_record.moved(recorded, now)) == caught, rel
    assert bench_record.moved(recorded, {k: v for k, v in recorded.items() if k != name})
