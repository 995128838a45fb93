#!/usr/bin/env python3
"""Scenario: a reproducible parameter study with saved results.

How a downstream user would actually run a study with this library:
sweep PROP-O's trade size ``m`` across several seeds, save every run's
record to JSON (rerunnable; ``python -m repro compare A B`` diffs two,
``python -m repro report DIR`` tabulates them all), and print an
aggregate table with spread — all through the public API.

Run:  python examples/parameter_study.py [output_dir]
"""

import pathlib
import sys

from repro import ExperimentConfig, PROPConfig, format_table
from repro.harness.persistence import load_record, save_record
from repro.harness.replicate import replicate

SEEDS = [0, 1, 2]
M_VALUES = [1, 2, 4]


def main(out_dir: str = "parameter_study_results") -> None:
    out = pathlib.Path(out_dir)  # save_record creates it

    base = ExperimentConfig(
        preset="ts-large",
        overlay_kind="gnutella",
        n_overlay=400,
        duration=1800.0,
        sample_interval=600.0,
        lookups_per_sample=300,
    )

    rows = []
    for m in M_VALUES:
        summary = replicate(base.but(prop=PROPConfig(policy="O", m=m)), SEEDS)
        for result in summary.results:
            save_record(result, out / f"prop_o_m{m}_seed{result.config.seed}.json")
        rows.append(
            [
                f"PROP-O m={m}",
                summary.mean_improvement(),
                summary.std_improvement(),
                float(summary.lookup_latency.mean[-1]),
            ]
        )

    print(f"run records saved under {out}/ (JSON, reload with load_record)\n")
    print(
        format_table(
            ["config", "final/initial mean", "std", "final latency mean (ms)"],
            rows,
        )
    )

    # demonstrate reloading a run record
    record = load_record(out / f"prop_o_m{M_VALUES[0]}_seed{SEEDS[0]}.json")
    latency = record.series["lookup_latency"]
    print(
        f"\nreloaded {record.config['prop']['policy']!r} m={record.config['prop']['m']} "
        f"seed={record.config['seed']}: "
        f"improvement {latency[-1] / latency[0]:.3f}"
    )


if __name__ == "__main__":
    main(*sys.argv[1:2])
