"""Self-test of the benchmark, run from the root of a source checkout:

    python3 bench/selftest.py

It checks that the metric names and units bench/run.py prints are exactly
those BENCHMARK.json declares (end-to-end untraced, per-layer traced), and
that seed 0 on the corpus workload reproduces, record for record, the report
of ``centerbound corpus`` over the same groups.  Exit code 0 when both hold.
"""

import json
import os
import subprocess
import sys

from run import BENCH_DIR, OUT_DIR, ROOT, SRC, import_package, workload_specs


def bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "corpus",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench/run.py --trace {trace} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def names_match(result: dict, declared: list[dict], what: str) -> bool:
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if printed == wanted:
        print(f"ok: {len(printed)} {what} metrics match BENCHMARK.json")
        return True
    units = sorted(k for k in wanted.keys() & printed.keys()
                   if wanted[k] != printed[k])
    print(f"FAIL: {what} metrics differ from BENCHMARK.json: "
          f"missing {sorted(wanted.keys() - printed.keys())}, "
          f"extra {sorted(printed.keys() - wanted.keys())}, units {units}")
    return False


def corpus_report_matches() -> bool:
    """The records of run.py's seed-0 corpus pass against the CLI's."""
    cb = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    specs_file = OUT_DIR / "corpus-specs.txt"
    specs_file.write_text("".join(str(s) + "\n"
                                  for s in workload_specs(cb, "corpus")))
    cli_out = OUT_DIR / "cli-corpus-seed0.jsonl"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "centerbound.cli", "corpus", "--corpus",
         str(specs_file), "--out", str(cli_out)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 3):
        sys.stderr.write(proc.stderr)
        print(f"FAIL: centerbound corpus exited {proc.returncode}")
        return False
    cli_lines = [line for line in cli_out.read_text().splitlines()
                 if not line.startswith('{"summary"')]
    ours = (OUT_DIR / "report-corpus-seed0.jsonl").read_text().splitlines()
    if cli_lines == ours:
        print(f"ok: seed 0 corpus report equals centerbound corpus "
              f"({len(ours)} records)")
        return True
    print(f"FAIL: seed 0 corpus report differs from centerbound corpus "
          f"({len(ours)} vs {len(cli_lines)} records)")
    return False


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = names_match(bench(0), declared["end_to_end"], "end-to-end")
    ok &= names_match(bench(1), declared["per_layer"], "per-layer")
    ok &= corpus_report_matches()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
