"""Set-up probe: one fresh interpreter imports the package and builds a
workload's template, density and m0 through the public builders, then prints
``time.monotonic()``.  The caller reads the clock before launching the probe;
the difference is one set-up sample.

    python3 probe.py SRC_DIR WORKLOAD SEED [CONFIG_FILE]
"""

import sys
import time


def main(argv) -> int:
    src, workload, seed = argv[0], argv[1], int(argv[2])
    sys.path.insert(0, src)
    if workload == "study-2000":
        import shiftdecon.cli  # noqa: F401  (the workload runs through the CLI)
        from shiftdecon.config import ExperimentConfig, build_density, build_template
        cfg = ExperimentConfig(replications=2000, seed=seed)
        template, density, m0 = build_template(cfg), build_density(cfg), cfg.m0_override
    elif workload == "rate-6400":
        from shiftdecon import compute_m0, laplace_density, sobolev_template
        template, density = sobolev_template(2.0, 1.0, 24), laplace_density(0.1)
        m0 = [compute_m0(density, n, template.k_max).value
              for n in (200, 400, 800, 1600, 3200, 6400)]
    elif workload == "analysis-wide":
        import shiftdecon.cli  # noqa: F401
        from shiftdecon.config import build_density, build_template, load_config
        cfg = load_config(argv[3])
        template, density, m0 = build_template(cfg), build_density(cfg), cfg.m0_override
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    ready = time.monotonic()
    print(f"{ready!r} {template.k_max} {density.label} {m0}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
