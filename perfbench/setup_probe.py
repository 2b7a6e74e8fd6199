"""Child process for the set-up measurement.

    python3 perfbench/setup_probe.py <src dir> <config file>

Does what a sweep process does before its first trial can start: import
``leojadce``, parse the scenario config and build the scenario geometry.
It then prints ``ready`` and exits. The parent times process start to
that line.
"""

import sys


def main(src_dir: str, config_path: str) -> int:
    sys.path.insert(0, src_dir)
    from leojadce import config, harness

    cfg = config.load_config(config_path)
    harness.scenario_geometry(cfg)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:3]))
