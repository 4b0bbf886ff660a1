"""Regenerate ``baseline.json``, the record of every workload.

    python3 perfbench/record.py

For each workload it runs ``run.py`` at the default seed with tracing off
and on, prints what each run prints, and records the command, why it was
chosen, the layers it loads and bypasses, the end-to-end medians, the
per-layer table, and whether the traced run confirmed what the workload
was chosen for.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name} --trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    return {
        "environment": lines[0].split(": ", 1)[1],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "predictions": [line.split("prediction: ", 1)[1]
                        for line in lines if "prediction: " in line],
    }


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import DEFAULT_SEED, WORKLOADS

    record = {}
    for name, w in WORKLOADS.items():
        end_to_end = run(name, 0)
        traced = run(name, 1)
        record[name] = {
            "command": w.command(),
            "why": w.reason,
            "loads": list(w.loads),
            "bypasses": list(w.bypasses),
            "seed": DEFAULT_SEED,
            "environment": traced["environment"],
            "end_to_end": end_to_end["metrics"],
            "per_layer": traced["metrics"],
            "predictions": traced["predictions"],
        }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
