"""Regenerate the scalar-vs-batched equivalence fixtures.

Run from the repository root::

    PYTHONPATH=src python -m tests.regen_batched_fixtures

Each fixture pins the *exact* per-replication outputs (availabilities at
full float precision, outage episode statistics, batch-means intervals,
and the complete downtime-attribution ledgers) of one expressible campaign
run on the **scalar** engine: a scenario-1 campaign and a scenario-2
campaign whose supervisor restarts restore hundreds of repairing
processes.  ``tests/test_sim_batched.py`` replays each campaign on both
engines (``batched="off"`` and ``batched="on"``) and requires
bit-identical equality with its fixture (``==``, no tolerance):
the batched kernel must reproduce the scalar engine's event
stream draw for draw.  Regenerate (and commit the diff) only when a change
is *supposed* to alter the event stream, and say why in the commit
message.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.faults import CampaignSpec, run_campaign

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIXTURE_NAME = "sim_batched_fixtures.json"
FIXTURE_2S_NAME = "sim_batched_2s_fixtures.json"

#: The pinned expressible campaign: scenario 1, no hazards, unlimited
#: crews — every feature the batched kernel models, long enough that each
#: replication sees hundreds of failure/repair cycles and real outages on
#: every signal.
CAMPAIGN_SPEC = CampaignSpec(
    option="1S",
    horizon_hours=2_000.0,
    replications=4,
    seed=23,
    batches=5,
)

#: The pinned scenario-2 campaign: processes depend on their VM *and*
#: their supervisor, and a supervisor's manual restart restores its
#: repairing processes.  Stressed processes (MTBF 20 h, A = 0.9) make
#: those restores frequent — over 500 across the replications, one of
#: them under a down VM — and every signal sees outages in every
#: replication.
CAMPAIGN_SPEC_2S = CampaignSpec(
    option="2S",
    horizon_hours=1_000.0,
    replications=4,
    seed=29,
    batches=5,
    a_process=0.9,
    process_mtbf_hours=20.0,
)

#: Fixture file name -> the campaign it pins.
FIXTURES = {
    FIXTURE_NAME: CAMPAIGN_SPEC,
    FIXTURE_2S_NAME: CAMPAIGN_SPEC_2S,
}


def result_record(result) -> dict:
    """Every measured quantity of one :class:`SimulationResult`."""
    return {
        "cp": result.cp,
        "sdp": result.shared_dp,
        "ldp": result.local_dp,
        "dp": result.dp,
        "intervals": {
            name: {
                "mean": interval.mean,
                "half_width": interval.half_width,
                "batches": interval.batches,
            }
            for name, interval in sorted(result.intervals.items())
        },
        "outages": {
            name: {
                "count": stats.count,
                "frequency_per_hour": stats.frequency_per_hour,
                "mean_duration_hours": stats.mean_duration_hours,
            }
            for name, stats in sorted(result.outages.items())
        },
        "attribution": {
            name: ledger.to_dict()
            for name, ledger in sorted(result.attribution.items())
        },
    }


def run_fixture_campaign(
    batched: str = "off", spec: CampaignSpec = CAMPAIGN_SPEC
):
    """A pinned campaign workload (shared with the equivalence tests)."""
    return run_campaign(spec, batched=batched)


def build_fixture(spec: CampaignSpec = CAMPAIGN_SPEC) -> dict:
    campaign = run_fixture_campaign(batched="off", spec=spec)
    return {
        "description": (
            "Bit-exact scalar-engine outputs of the pinned expressible "
            "campaign; test_sim_batched requires == equality from both "
            "the scalar and the struct-of-arrays lockstep engines"
        ),
        "spec": spec.to_dict(),
        "seeds": list(campaign.replications.seeds),
        "results": [
            result_record(r) for r in campaign.replications.results
        ],
        "events": [stat["events"] for stat in campaign.stats],
    }


def regenerate(directory: Path = GOLDEN_DIR) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    targets = []
    for name, spec in FIXTURES.items():
        target = directory / name
        target.write_text(
            json.dumps(build_fixture(spec), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        targets.append(target)
    return targets


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=GOLDEN_DIR,
        help="directory to write the fixtures into (default: tests/golden)",
    )
    args = parser.parse_args(argv)
    for target in regenerate(args.out):
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
