"""Cold-start probe: one fresh interpreter from nothing to ready-for-first-request.

Run by the driver as a child process and timed from outside (spawn to
exit), so interpreter start-up and the import of ``repro`` count — import
bloat shows in ``setup_s``.
"""

import sys


def main(argv: list[str]) -> int:
    policy, nodes, jobs, seed = argv[0], int(argv[1]), int(argv[2]), int(argv[3])
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.runner import build_scenario_jobs
    from repro.service.engine import engine_for_scenario

    config = ScenarioConfig(policy=policy, num_nodes=nodes, num_jobs=jobs, seed=seed)
    built = build_scenario_jobs(config)
    engine = engine_for_scenario(config)
    return 0 if len(built) == jobs and engine.now == 0.0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
