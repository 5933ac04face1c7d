"""One tsgan CLI process, started by the cli-chain workload.

    python perfbench/cli_proc.py [--trace] [--probe] REPORT tsgan-args...
    python perfbench/cli_proc.py [--trace] [--probe] REPORT rerun MANIFEST OUT_DIR

The first form is what the `tsgan` console script does (`tsgan.cli.main`);
the second replays a run manifest with `tsgan.manifest.rerun`. REPORT is a
JSON file that receives the seconds the command's own call took and, with
--trace, this process's per-layer spans. With --probe, the host-speed probe
runs just before and after the call, in this process and so on its core,
and the report also gets the call's `scale` to the reference host speed and
the `probe_s` the probe took. The exit code is the command's.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    flags = set()
    while argv[0] in ("--trace", "--probe"):
        flags.add(argv.pop(0))
    report_path, args = Path(argv[0]), argv[1:]
    sys.path.insert(0, str(HERE))
    tracer = meter = None
    if "--trace" in flags:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    if "--probe" in flags:
        from hostspeed import Meter
        meter = Meter()
    from tsgan import manifest
    from tsgan.cli import main as cli_main
    command = args[0]
    before = meter.sample() if meter is not None else None
    t0 = time.perf_counter()
    if command == "rerun":
        code = manifest.rerun(args[1], args[2], cli_main)
    else:
        code = cli_main(args)
    report = tracer.snapshot() if tracer is not None else {}
    report["cli"] = {command: time.perf_counter() - t0}
    if meter is not None:
        report["scale"] = meter.scale(before, meter.sample())
        report["probe_s"] = meter.seconds
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
