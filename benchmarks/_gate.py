"""The shared ``--check`` regression gate of the BENCH_*.json benches.

Every gated bench re-measures its grid and compares *headline ratios*
(higher is better, so the gate means something across hosts) against a
committed baseline JSON.  A ratio fails when it falls more than
``CHECK_TOLERANCE`` below the baseline; metrics a baseline predates are
skipped.  Exit codes: ``--check`` returns 1 on any failure and 0
otherwise; a plain run writes ``--out`` and returns 0, or 1 when the
bench's own correctness flag is down.
"""

import json

#: Maximum tolerated fractional drop of a headline ratio before
#: ``--check`` fails.
CHECK_TOLERANCE = 0.15


def headline_failures(baseline, payload, metrics, tolerance=CHECK_TOLERANCE):
    """Failure strings for every ratio in ``metrics`` below its floor."""
    failures = []
    for metric in metrics:
        base = baseline.get(metric)
        if base is None:
            continue  # older baselines predate this metric
        current = payload[metric]
        floor = base * (1.0 - tolerance)
        if current < floor:
            failures.append(
                f"{metric}: {current:.3f} < {floor:.3f} "
                f"(baseline {base:.3f} - {tolerance:.0%})"
            )
    return failures


def add_check_argument(parser):
    """The standard ``--check BASELINE`` option."""
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="re-measure and fail (exit 1) if any headline ratio regressed "
             f"more than {round(CHECK_TOLERANCE * 100)}%% vs this JSON",
    )


def finish(args, payload, check_regressions, ok=True):
    """Gate against ``args.check`` or write ``args.out``; the exit code."""
    if args.check is not None:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_regressions(baseline, payload)
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}")
            return 1
        print(f"no headline regression vs {args.check}")
        return 0
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {args.out}")
    return 0 if ok else 1
