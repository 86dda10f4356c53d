#!/usr/bin/env python3
"""Run the fixed-versus-adaptive planning campaign and print a summary table.

Writes records.csv and aggregate.json to the output directory, then prints
one line per nominal cell size with success counts and the mean path-length
improvement over trials where both planners succeeded.
"""
import argparse
import json
import sys
from pathlib import Path

from octoplan.bench import BenchConfig, run_campaign, write_outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, default=None,
                        help="campaign config file (key = value lines); "
                             "defaults apply when omitted")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the trial count from the config")
    parser.add_argument("--out-dir", type=Path, default=Path("bench_out"),
                        help="directory for records.csv and aggregate.json")
    args = parser.parse_args(argv)

    config = BenchConfig.from_file(args.config) if args.config else BenchConfig()
    if args.trials is not None:
        config = BenchConfig(**{**config.__dict__, "trials": args.trials})

    def progress(done, total):
        print(f"\r{done}/{total} trials", end="", file=sys.stderr, flush=True)

    records, aggregate = run_campaign(config, progress=progress)
    print(file=sys.stderr)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_outputs(args.out_dir, records, aggregate)

    print(f"domain {config.domain_x_m:g} x {config.domain_y_m:g} m, "
          f"{config.trials} trials per cell size")
    for cell in config.cell_sizes_m:
        entry = aggregate["per_cell"][repr(cell)]
        # The aggregate has no length figure for a cell without a trial
        # that both planners solved.
        pct = entry.get("length_improvement_pct")
        improvement = "n/a" if pct is None else f"{pct:+.3f}%"
        print(f"  cell {cell:g} m: fixed {entry['fixed_successes']:4d}  "
              f"adaptive {entry['adaptive_successes']:4d}  "
              f"joint {entry['joint_successes']:4d}  "
              f"length improvement {improvement}")
    print(f"wrote {args.out_dir / 'records.csv'} and "
          f"{args.out_dir / 'aggregate.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
