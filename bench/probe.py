"""Set-up probe: one fresh process that stops when its first op is ready.

The parent times it from spawn to the line ``ready`` on standard output,
which covers interpreter start, the package import, and, for a sweep,
cli.main's config parsing, manifest and codebooks up to the first scene
request.  For ``track`` it covers the import and the empty table.

    python3 bench/probe.py track
    python3 bench/probe.py sweep <cli.main argument>...
"""

import os
import sys

import env


def ready() -> None:
    os.write(1, b"ready\n")
    os._exit(0)


def main(argv: list[str]) -> int:
    pkg = env.load_package()
    if argv[:1] == ["track"]:
        from workloads import track_state

        track_state(pkg)
        ready()
    if argv[:1] != ["sweep"]:
        print("usage: probe.py track | probe.py sweep <cli.main argument>...", file=sys.stderr)
        return 2
    make_sampler = pkg.sim.make_scenario_sampler

    def stop_at_first_scene(cfg):
        make_sampler(cfg)
        return lambda rng: ready()

    pkg.sim.make_scenario_sampler = stop_at_first_scene
    code = pkg.cli.main(argv[1:])
    print(f"cli.main returned {code} before its first op", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
