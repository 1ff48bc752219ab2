"""Policy-server child process for the ``serve_team`` workload.

Serves a checkpoint with :class:`repro.serving.server.PolicyServer` on an
ephemeral port, prints ``PORT <n>`` once it listens, and stops gracefully
on SIGTERM.  With ``--totals`` it installs the layer timers first and, after
the graceful stop, writes its telemetry counters to that file as JSON.

    PYTHONPATH=src python3 perfbench/serve_child.py --checkpoint ckpt.npz
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal

from repro import obs
from repro.config import ServingConfig, SingleHopConfig
from repro.serving.engine import FrameworkSpec
from repro.serving.server import PolicyServer


async def _serve(args, spec, config):
    server = PolicyServer(spec, config, checkpoint_path=args.checkpoint)
    await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(f"PORT {server.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--episode-limit", type=int, default=50)
    parser.add_argument("--max-wait-us", type=int, default=0)
    parser.add_argument("--reload-poll-ms", type=int, default=0)
    parser.add_argument("--totals", default=None,
                        help="install layer timers and write counters here")
    args = parser.parse_args(argv)

    timer = None
    if args.totals:
        from layers import LayerTimer

        timer = LayerTimer().install()
    # Everything not named here stays at the ServingConfig default.
    config = ServingConfig(
        port=0,
        max_wait_us=args.max_wait_us,
        reload_poll_ms=args.reload_poll_ms,
    )
    spec = FrameworkSpec(
        name="proposed",
        seed=args.seed,
        env_config=SingleHopConfig(episode_limit=args.episode_limit),
    )
    asyncio.run(_serve(args, spec, config))
    if timer is not None:
        timer.uninstall()
        with open(args.totals, "w") as f:
            json.dump({"counters": obs.snapshot()["counters"]}, f)


if __name__ == "__main__":
    main()
