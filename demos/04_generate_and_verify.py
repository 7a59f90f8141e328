#!/usr/bin/env python3
"""The instance pipeline: generate, save, inspect, verify, exit codes."""

import json
import pathlib
import subprocess
import sys
import tempfile

from gdrazin import CaseSpec, generate
from gdrazin.io import save_instance

# Instances are built exactly (weighted shifts solved for the declared
# lambda), then conjugated by seeded unitaries. The certificate records
# every hypothesis condition at that lambda.
case = generate(CaseSpec(target="3.1", dim=5, lam=0.5, seed=7))
print("kind:", case.kind, " blocks:", sorted(case.matrices))
for chk in case.certificate:
    print(f"  {chk.condition:38s} residual={chk.residual:.2e}")

# negate=True re-runs the construction with exactly one condition broken;
# which one rotates with the seed.
for seed in range(4):
    broken = generate(CaseSpec(target="3.1", dim=5, lam=0.5, seed=seed, negate=True))
    print("seed", seed, "breaks:", broken.broken)

# The same pipeline through the CLI. gen writes one directory per
# instance: matrix documents plus instance.json with the manifest.
work = pathlib.Path(tempfile.mkdtemp())
gdz = [sys.executable, "-m", "gdrazin.cli"]

subprocess.run([*gdz, "gen", "--target", "3.1", "--dim", "5", "--lambda", "1/2",
                "--seed", "7", "--out", str(work / "valid")], check=True,
               stdout=subprocess.DEVNULL)
print("wrote:", sorted(p.name for p in (work / "valid").iterdir()))

subprocess.run([*gdz, "gen", "--target", "3.1", "--dim", "5", "--lambda", "1/2",
                "--seed", "7", "--negate", "--out", str(work / "negated")],
               check=True, stdout=subprocess.DEVNULL)

# verify re-checks every instance directory: formulas must match the
# oracle on valid instances, and negated instances must be refused.
out = subprocess.run([*gdz, "verify", str(work)], capture_output=True, text=True)
report = json.loads(out.stdout)
for row in report["instances"]:
    tag = pathlib.Path(row["dir"]).name
    print(f"{tag:10s} ok={row['ok']}  {row['detail']}")
print("verify exit code:", out.returncode)

# Tampering flips the exit code to 3: copy the valid instance and damage
# one matrix entry. A matrix file lists the entries row-major as one flat
# run of numbers, [re0, im0, re1, im1, ...], so data[0] is the real part
# of entry (0, 0).
tampered = work / "tampered"
tampered.mkdir()
for p in (work / "valid").iterdir():
    (tampered / p.name).write_text(p.read_text())
doc = json.loads((tampered / "a.json").read_text())
doc["data"][0] += 1.0
(tampered / "a.json").write_text(json.dumps(doc))
out = subprocess.run([*gdz, "verify", str(tampered)], capture_output=True, text=True)
print("tampered verify exit code:", out.returncode)

# Library-side saving uses the same layout as gen.
save_instance(work / "by_hand", case)
print("by-hand instance files:", sorted(p.name for p in (work / "by_hand").iterdir()))
