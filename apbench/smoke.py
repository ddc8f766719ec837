"""Smoke check of the benchmark itself, at a tiny size (about 20 s).

Asserts that every workload emits exactly the end-to-end metrics named in
``BENCHMARK.json`` with their units (untraced) and exactly the per-layer
ones (traced), that all checks pass, and that a deliberately wrong
reference value makes checks fail, so ``fail_frac`` is non-zero.

Usage: python3 apbench/smoke.py
"""

import json
import shutil
import sys
import tempfile

import run

SECONDS = 0.5


def expected(spec, section):
    return {m["name"]: m["unit"] for m in spec[section]}


def check_metrics(record, want, what):
    got = {name: entry["unit"] for name, entry in record["metrics"].items()}
    assert got == want, f"{what}: metrics differ from BENCHMARK.json: " \
        f"missing {sorted(set(want) - set(got))}, " \
        f"extra {sorted(set(got) - set(want))}, " \
        f"units {[(n, got[n], want[n]) for n in got if n in want and got[n] != want[n]]}"
    assert record["attempted"] >= 1, f"{what}: no checks attempted"


def main():
    run.cap_blas_threads()
    run.import_apcone()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.WORKLOADS)
    e2e, layer = expected(spec, "end_to_end"), expected(spec, "per_layer")
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=run.OUT_DIR)
    try:
        for name in workloads.WORKLOADS:
            for trace, want in ((0, e2e), (1, layer)):
                rec = run.measure(name, 0, SECONDS, trace, workloads.TINY,
                                  workdir, probes=1)
                what = f"{name} trace={trace}"
                check_metrics(rec, want, what)
                assert rec["failed"] == 0, f"{what}: {rec['failed_checks']}"
                if not trace:
                    assert rec["metrics"]["pass_frac"]["value"] == 1.0
                print(f"ok {what}: {len(want)} metrics, "
                      f"{rec['attempted']} checks")

        # A wrong reference value must be caught.
        slope = workloads.SLOW_CLI_SLOPE[workloads.TINY.cli_iters]
        workloads.SLOW_CLI_SLOPE[workloads.TINY.cli_iters] = slope * 1.01
        rec = run.measure("slow_cli", 0, SECONDS, 0, workloads.TINY,
                          workdir, probes=1)
        workloads.SLOW_CLI_SLOPE[workloads.TINY.cli_iters] = slope
        assert rec["failed"] > 0 and rec["metrics"]["pass_frac"]["value"] < 1
        print(f"ok wrong slope reference: fail_frac "
              f"{rec['failed'] / rec['attempted']:.3f}")

        good = workloads.CATALOG
        workloads.CATALOG = tuple(row[:4] + (row[4] * 1.1,) + row[5:]
                                  for row in good)
        try:
            rec = run.measure("sweep", 0, SECONDS, 0, workloads.TINY,
                              workdir, probes=1)
        finally:
            workloads.CATALOG = good
        assert rec["failed"] > 0 and rec["metrics"]["pass_frac"]["value"] < 1
        print(f"ok wrong catalog ratios: fail_frac "
              f"{rec['failed'] / rec['attempted']:.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
