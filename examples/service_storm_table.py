"""Regenerate the EXPERIMENTS.md traffic-storm table.

Produces the markdown table in EXPERIMENTS.md ("Schedule as a
service"): the default :class:`~repro.scenarios.storm.StormConfig`
(200 requests, 8 templates cycling 120/200/300-node RGNOS graphs over
mcp/dls/param specs, Zipf-1.1 popularity) is replayed against a
self-hosted in-process server, once per worker setting, and the
report's RPS / latency / cold-vs-warm numbers are printed per run.

Latency and RPS are machine-dependent, and so is the cold/warm
split: a repeat of a template that arrives while the template is still
being scheduled waits on that schedule (it is coalesced) and counts as
cold, so the cold count depends on timing.  What the seed fixes is the
request mix, so the script also prints how many distinct templates the
storm requests: the number of schedules a cold server computes.

Run with::

    PYTHONPATH=src python examples/service_storm_table.py
"""

from repro.scenarios.storm import StormConfig, make_storm
from repro.service import run_loadtest


def main() -> None:
    config = StormConfig()
    cols = ["jobs", "ok/429/504", "RPS", "p50 (ms)", "p99 (ms)",
            "cold p50 (ms)", "warm p50 (ms)", "speedup", "warm ratio"]
    print("| " + " | ".join(cols) + " |")
    print("|" + "|".join("-" * (len(c) + 2) for c in cols) + "|")
    for jobs in (1, 2, 4):
        r = run_loadtest(config, jobs=jobs, concurrency=16)
        print("| " + " | ".join([
            str(jobs),
            f"{r.ok}/{r.rejected}/{r.timeouts}",
            f"{r.rps:.0f}",
            f"{r.p50_ms:.2f}",
            f"{r.p99_ms:.2f}",
            f"{r.cold_p50_ms:.1f} ({r.cold})",
            f"{r.warm_p50_ms:.2f} ({r.warm})",
            f"{r.speedup:.1f}x",
            f"{r.warm_hit_ratio:.2f}",
        ]) + " |")
    distinct = len({request.template for request in make_storm(config)})
    print(f"\nstorm: `{config.fingerprint()}`; {distinct} distinct "
          f"templates requested")


if __name__ == "__main__":
    main()
