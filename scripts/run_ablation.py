#!/usr/bin/env python3
"""Experiment driver: generate scenes, then train and score on that same set once per kNN budget.

Defaults reproduce the acceptance runs (20 scenes from seed 1, 300 epochs,
IoU 0.5) with the relation graph on (k=3) and off (k=0), both arms from the
same seeds; `--knn-k 3` alone is the overfit run. Final training loss and
mAP are printed one row per run, and with exactly two runs the mAP gap too:
its direction is reported, not asserted. The exit code is the first failing
command's (2 bad input, 3 numeric divergence, 4 checkpoint mismatch), else 0.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from reldet import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="runs/ablation")
    ap.add_argument("--scenes", type=int, default=20)
    ap.add_argument("--data-seed", type=int, default=1)
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--knn-k", type=int, nargs="+", default=[3, 0], help="one run per budget; 0 turns relations off")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    work = Path(args.workdir)
    data = str(work / "data")
    commands = [["gen-data", "--seed", str(args.data_seed), "--count", str(args.scenes), "--out", data]]
    for k in args.knn_k:
        ckpt = str(work / f"ckpt_k{k}")
        commands += [["train", "--data", data, "--epochs", str(args.epochs), "--knn-k", str(k), "--out", ckpt],
                     ["eval", "--data", data, "--checkpoint", ckpt, "--json", str(work / f"report_k{k}.json")]]
    for command in commands:
        if code := cli.main(command):
            return code

    print()
    print(f"{'run':<12} {'final loss':>12} {'mAP@0.5':>9}")
    maps = []
    for k in args.knn_k:
        loss = float((work / f"ckpt_k{k}" / "train_log.csv").read_text().splitlines()[-1].split(",")[2])
        maps.append(json.loads((work / f"report_k{k}.json").read_text())["map"])
        print(f"knn_k={k:<6} {loss:>12.4f} {maps[-1]:>9.4f}")
    if len(maps) == 2:
        print(f"knn_k={args.knn_k[0]} minus knn_k={args.knn_k[1]} mAP gap: {maps[0] - maps[1]:+.4f}")
    print(f"total wall time: {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
