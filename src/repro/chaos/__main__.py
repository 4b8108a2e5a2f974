"""CLI entry point: ``python -m repro.chaos``.

Runs a corpus of seeded chaos episodes (or replays one reproducer) and
exits non-zero on any invariant violation, shrinking each failure to a
minimal JSON reproducer first.

``--bounded`` switches to the exhaustive small-scope checker
(:mod:`repro.chaos.bounded`): the pinned canonical configuration plus a
few generated rule sets are enumerated to fixpoint, state counts land
in ``CHAOS_bounded.json``, and the exit code reflects both invariant
violations and — with ``--baseline`` — a state-count collapse against a
committed earlier report (the "checker stopped exploring" canary).
``--replay`` accepts reproducers from either explorer, dispatching on
their ``kind`` field.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from repro.chaos.bounded import BoundedExplorer
from repro.chaos.explorer import ChaosExplorer, EpisodeSpec
from repro.mq.persistence import JOURNAL_SCHEMES


def _report_one(result) -> None:
    status = "ok" if result.ok else "VIOLATION"
    print(
        f"episode seed={result.spec.seed} {status}: sends={result.sends}"
        f" crashes={result.crashes} faults={result.faults_fired}"
        f" outcomes={result.outcomes} timeline={result.timeline_hash}"
    )
    for violation in result.violations:
        print(f"  {violation}")


def _run_bounded(args) -> int:
    """Exhaustive mode: enumerate small configs, write CHAOS_bounded.json."""
    from repro.harness.runner import run_bounded_check

    summary = run_bounded_check(
        gen_seeds=args.gen_seeds,
        crash_budget=args.crash_budget,
        max_schedules=args.max_schedules,
        repro_dir=args.out,
        baseline_path=args.baseline,
    )
    for name, entry in summary["configs"].items():
        status = "ok" if not entry["violations"] else "VIOLATION"
        print(
            f"bounded {name} {status}: states={entry['states']}"
            f" schedules={entry['schedules']}"
            f" transitions={entry['transitions']}"
            f" pruned={entry['pruned']} complete={entry['complete']}"
        )
    for violation in summary["violations"]:
        print(f"  {violation}")
    for path in summary["repro_paths"]:
        print(f"  reproducer: {path}")
    for message in summary["gate_failures"]:
        print(f"GATE FAILURE: {message}")

    out_path = f"{args.out}/CHAOS_bounded.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        json.dumps(
            {
                "bounded": out_path,
                "failures": summary["failures"],
                "gate_failures": len(summary["gate_failures"]),
            }
        )
    )
    return 1 if summary["failures"] or summary["gate_failures"] else 0


def _parse_seed_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Seeded chaos exploration of the conditional-messaging"
        " implementation.",
    )
    parser.add_argument(
        "--episodes", type=int, default=50, help="episodes to run (default 50)"
    )
    parser.add_argument(
        "--base-seed", type=int, default=0, help="first episode seed"
    )
    parser.add_argument(
        "--journal",
        choices=sorted(JOURNAL_SCHEMES),
        default="memory",
        help="journal backend (binfile enables torn-tail faults;"
        " sqlstore exercises engine-transaction commit groups)",
    )
    parser.add_argument(
        "--replay",
        metavar="REPRO_JSON",
        help="replay one reproducer file instead of exploring",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=".",
        help="directory for minimized reproducer files (default: cwd)",
    )
    parser.add_argument(
        "--bounded",
        action="store_true",
        help="exhaustive small-scope mode: enumerate every interleaving"
        " and crash point of the canonical + generated rule sets,"
        " writing state counts to CHAOS_bounded.json",
    )
    parser.add_argument(
        "--crash-budget",
        type=int,
        default=1,
        help="crashes enumerated per trajectory in --bounded (default 1)",
    )
    parser.add_argument(
        "--gen-seeds",
        type=_parse_seed_list,
        default=[1, 2],
        metavar="S1,S2,...",
        help="generator seeds for extra --bounded rule sets"
        " (default '1,2'; pass '' for canonical only)",
    )
    parser.add_argument(
        "--max-schedules",
        type=int,
        default=6_000,
        help="safety cap on terminal schedules per --bounded config",
    )
    parser.add_argument(
        "--baseline",
        metavar="BOUNDED_JSON",
        help="earlier CHAOS_bounded.json; fail if a config now explores"
        " fewer than half its baseline states",
    )
    args = parser.parse_args(argv)

    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as handle:
            text = handle.read()
        if json.loads(text).get("kind") == "bounded":
            violations = BoundedExplorer.replay_repro(json.loads(text))
            status = "ok" if not violations else "VIOLATION"
            print(f"bounded replay {status}")
            for violation in violations:
                print(f"  {violation}")
            return 0 if not violations else 1
        result = ChaosExplorer().replay(text)
        _report_one(result)
        return 0 if result.ok else 1

    if args.bounded:
        return _run_bounded(args)

    explorer = ChaosExplorer()

    failures = 0
    for i in range(args.episodes):
        seed = args.base_seed + i
        spec = EpisodeSpec.generate(seed, journal=args.journal)
        result = explorer.run_episode(spec)
        status = "ok" if result.ok else "VIOLATION"
        print(
            f"episode seed={seed} {status}: sends={result.sends}"
            f" crashes={result.crashes} faults={result.faults_fired}"
            f" outcomes={result.outcomes}"
        )
        if not result.ok:
            failures += 1
            for violation in result.violations:
                print(f"  {violation}")
            minimal = explorer.shrink(spec)
            path = f"{args.out}/CHAOS_repro_seed{seed}.json"
            explorer.write_repro(minimal, path)
            print(f"  minimized reproducer: {path}")
    print(
        json.dumps(
            {
                "episodes": args.episodes,
                "base_seed": args.base_seed,
                "journal": args.journal,
                "failures": failures,
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
