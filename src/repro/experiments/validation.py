"""Mechanical validation of the paper's §5 claims.

Every qualitative statement the paper makes about its figures is
encoded as a named, checkable claim over the regenerated series.  This
is how EXPERIMENTS.md's paper-versus-measured table is produced, and
how we know a refactor did not silently change who wins.

Claims check *shape*, not absolute values: who wins, whether a series
rises or falls, where crossovers land — the things that should survive
the substitution of a calibrated synthetic trace for the original SDSC
SP2 file.

A figure here is one entry of the paper record
(:mod:`repro.experiments.record`): a dict whose ``panels`` list holds
``label``, ``x_values`` and per-policy ``series``.  Each claim comes
back as a JSON-safe dict ``{id, source, description, passed, detail}``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.experiments.compare import crossover_points, dominance_fraction, trend

Claim = dict[str, Any]
Series = Mapping[str, Sequence[float]]

#: The three policies of the paper, in its plotting order.
PAPER_POLICIES: tuple[str, ...] = ("edf", "libra", "librarisk")


def panel(fig: Mapping[str, Any], label: str) -> Mapping[str, Any]:
    """The panel of ``fig`` labelled ``label`` ("a" … "d")."""
    for p in fig["panels"]:
        if p["label"] == label:
            return p
    raise KeyError(f"figure has no panel {label!r}")


def _series(fig: Mapping[str, Any], label: str) -> Series:
    return panel(fig, label)["series"]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def claim(cid: str, source: str, description: str, passed: Any, detail: str) -> Claim:
    return {"id": cid, "source": source, "description": description,
            "passed": bool(passed), "detail": detail}


# -- §5.1 overview claims (checked on any two-mode figure) --------------------
def overview_claims(fid: str, fig: Mapping[str, Any]) -> list[Claim]:
    """The claims §5.1 makes about every figure's four panels."""
    a, b, c, d = (_series(fig, label) for label in "abcd")
    return [
        claim(
            f"F{fid}.accurate-beats-trace", "§5.1",
            "every policy fulfils more deadlines with accurate estimates",
            all(sum(a[p]) >= sum(b[p]) for p in PAPER_POLICIES),
            ", ".join(f"{p}: {_mean(a[p]):.1f}% vs {_mean(b[p]):.1f}%" for p in PAPER_POLICIES),
        ),
        claim(
            f"F{fid}.librarisk-matches-libra-accurate", "§5.1",
            "accurate estimates: LibraRisk fulfils as many jobs as Libra",
            dominance_fraction(a["librarisk"], a["libra"], tolerance=2.0) >= 0.8
            and dominance_fraction(a["libra"], a["librarisk"], tolerance=2.0) >= 0.8,
            f"max gap {max(abs(x - y) for x, y in zip(a['librarisk'], a['libra'])):.2f} pp",
        ),
        claim(
            f"F{fid}.librarisk-beats-libra-trace", "§5.1",
            "trace estimates: LibraRisk fulfils many more jobs than Libra",
            dominance_fraction(b["librarisk"], b["libra"]) == 1.0
            and (sum(b["librarisk"]) - sum(b["libra"])) / len(b["libra"]) > 5.0,
            f"mean gain {(sum(b['librarisk']) - sum(b['libra'])) / len(b['libra']):.1f} pp",
        ),
        claim(
            f"F{fid}.libra-edge-over-edf-shrinks-with-trace", "§5.1",
            "trace estimates: Libra is only barely better than EDF "
            "(its edge is far smaller than LibraRisk's edge over Libra)",
            (sum(b["libra"]) - sum(b["edf"])) < (sum(b["librarisk"]) - sum(b["libra"])),
            f"libra-edf {_mean(b['libra']) - _mean(b['edf']):.1f} pp "
            f"vs librarisk-libra {_mean(b['librarisk']) - _mean(b['libra']):.1f} pp",
        ),
        claim(
            f"F{fid}.same-slowdown-accurate", "§5.1",
            "accurate estimates: Libra and LibraRisk have the same slowdown",
            all(abs(x - y) <= 0.05 * max(x, 1.0) for x, y in zip(c["libra"], c["librarisk"])),
            f"max rel gap "
            f"{max(abs(x - y) / max(x, 1.0) for x, y in zip(c['libra'], c['librarisk'])):.3f}",
        ),
        claim(
            f"F{fid}.librarisk-slowdown-below-libra-trace", "§5.1",
            "trace estimates: LibraRisk achieves lower slowdown than Libra",
            dominance_fraction(d["librarisk"], d["libra"], higher_is_better=False,
                               tolerance=0.05) >= 0.8,
            f"means {_mean(d['librarisk']):.2f} vs {_mean(d['libra']):.2f}",
        ),
        claim(
            f"F{fid}.edf-lowest-slowdown", "§5.1",
            "EDF has the lowest average slowdown in every panel",
            all(
                dominance_fraction(series["edf"], series[p], higher_is_better=False,
                                   tolerance=0.02) == 1.0
                for series in (c, d)
                for p in ("libra", "librarisk")
            ),
            f"edf {_mean(c['edf']):.2f} (accurate), {_mean(d['edf']):.2f} (trace)",
        ),
    ]


# -- figure-specific claims -----------------------------------------------------
def figure1_claims(fig: Mapping[str, Any]) -> list[Claim]:
    """§5.2: varying workload."""
    a, b = _series(fig, "a"), _series(fig, "b")
    crossings = crossover_points(list(panel(fig, "a")["x_values"]), a["edf"], a["libra"])
    return [
        claim(
            "F1.fulfilment-rises-as-load-drops", "§5.2",
            "Libra and LibraRisk fulfil more jobs as the arrival delay factor grows",
            trend(a["libra"], tolerance=1.0) == "increasing"
            and trend(b["librarisk"], tolerance=2.0) in ("increasing", "mixed"),
            f"libra(acc): {trend(a['libra'], tolerance=1.0)}, "
            f"librarisk(trace): {trend(b['librarisk'], tolerance=2.0)}",
        ),
        claim(
            "F1.edf-wins-under-heaviest-load", "§5.2",
            "EDF fulfils the most jobs at the heaviest workload (factor 0.1)",
            a["edf"][0] >= a["libra"][0] and b["edf"][0] >= b["libra"][0],
            f"accurate {a['edf'][0]:.1f} vs {a['libra'][0]:.1f}; "
            f"trace {b['edf'][0]:.1f} vs {b['libra'][0]:.1f}",
        ),
        claim(
            "F1.edf-advantage-fades-past-0.3", "§5.2",
            "EDF's advantage over Libra disappears around factor 0.3 "
            "(accurate estimates)",
            bool(crossings) and 0.1 <= crossings[0] <= 0.6,
            f"crossover(s) at {', '.join(f'{c:.2f}' for c in crossings) or 'none'}",
        ),
    ]


def figure2_claims(fig: Mapping[str, Any]) -> list[Claim]:
    """§5.3: varying deadline high:low ratio."""
    a, b, d = _series(fig, "a"), _series(fig, "b"), _series(fig, "d")
    x = list(panel(fig, "b")["x_values"])
    lows = [i for i, v in enumerate(x) if v < 4.0] or [0]
    highs = [i for i, v in enumerate(x) if v >= 4.0] or [len(x) - 1]
    gain = [r - l for r, l in zip(b["librarisk"], b["libra"])]
    mean_low = sum(gain[i] for i in lows) / len(lows)
    mean_high = sum(gain[i] for i in highs) / len(highs)
    return [
        claim(
            "F2.longer-deadlines-more-fulfilment", "§5.3",
            "more jobs meet their deadlines as the high:low ratio grows",
            trend(a["libra"], tolerance=1.0) == "increasing",
            f"libra(acc): {trend(a['libra'], tolerance=1.0)}",
        ),
        claim(
            "F2.improvement-higher-at-low-ratio", "§5.3",
            "LibraRisk's gain over Libra is larger when the ratio is low (< 4)",
            mean_low >= mean_high,
            f"mean gain {mean_low:.1f} pp (ratio<4) vs {mean_high:.1f} pp (ratio>=4)",
        ),
        claim(
            "F2.librarisk-slowdown-improves-with-ratio", "§5.3",
            "LibraRisk keeps a slowdown advantage over Libra as deadlines grow",
            dominance_fraction(d["librarisk"], d["libra"], higher_is_better=False,
                               tolerance=0.05) >= 0.8,
            f"means {_mean(d['librarisk']):.2f} vs {_mean(d['libra']):.2f}",
        ),
    ]


def figure3_claims(fig: Mapping[str, Any]) -> list[Claim]:
    """§5.4: varying the percentage of high urgency jobs."""
    b = _series(fig, "b")
    gain_first = b["librarisk"][0] - b["libra"][0]
    gain_last = b["librarisk"][-1] - b["libra"][-1]
    return [
        claim(
            "F3.edf-libra-degrade-with-urgency", "§5.4",
            "EDF and Libra fulfil fewer jobs as high-urgency jobs increase (trace)",
            b["edf"][-1] < b["edf"][0] and b["libra"][-1] < b["libra"][0],
            f"edf {b['edf'][0]:.1f}->{b['edf'][-1]:.1f}, "
            f"libra {b['libra'][0]:.1f}->{b['libra'][-1]:.1f}",
        ),
        claim(
            "F3.librarisk-holds-up-under-urgency", "§5.4",
            "LibraRisk holds its fulfilment level as urgency grows (trace) "
            "while the others collapse",
            b["librarisk"][-1] >= b["librarisk"][0] - 5.0,
            f"librarisk {b['librarisk'][0]:.1f}->{b['librarisk'][-1]:.1f}",
        ),
        claim(
            "F3.improvement-grows-with-urgency", "§5.4",
            "LibraRisk's improvement over Libra grows with the share of "
            "high-urgency jobs",
            gain_last > gain_first,
            f"gain {gain_first:.1f} pp -> {gain_last:.1f} pp",
        ),
    ]


def figure4_claims(fig: Mapping[str, Any]) -> list[Claim]:
    """§5.5: varying estimate inaccuracy (panels split by urgency %)."""
    a, b = _series(fig, "a"), _series(fig, "b")
    claims = []
    for label, series in (("a", a), ("b", b)):
        claims.append(claim(
            f"F4.{label}.fulfilment-degrades-with-inaccuracy", "§5.5",
            f"panel ({label}): fewer deadlines fulfilled as inaccuracy grows",
            series["libra"][-1] < series["libra"][0],
            f"libra {series['libra'][0]:.1f} -> {series['libra'][-1]:.1f}",
        ))
        drop_libra = series["libra"][0] - series["libra"][-1]
        drop_risk = series["librarisk"][0] - series["librarisk"][-1]
        claims.append(claim(
            f"F4.{label}.librarisk-degrades-least", "§5.5",
            f"panel ({label}): LibraRisk loses the least to inaccuracy",
            drop_risk < drop_libra,
            f"drops: librarisk {drop_risk:.1f} pp vs libra {drop_libra:.1f} pp",
        ))
    claims.append(claim(
        "F4.high-urgency-advantage-about-doubles", "§5.5",
        "at full inaccuracy LibraRisk's margin over Libra is larger with "
        "80% high-urgency jobs than with 20%",
        (b["librarisk"][-1] - b["libra"][-1]) > (a["librarisk"][-1] - a["libra"][-1]),
        f"margin {a['librarisk'][-1] - a['libra'][-1]:.1f} pp (20%) vs "
        f"{b['librarisk'][-1] - b['libra'][-1]:.1f} pp (80%)",
    ))
    return claims


def validate_figure(fid: str, fig: Mapping[str, Any]) -> list[Claim]:
    """Check every claim the paper makes about figure ``fid``."""
    own = {"1": figure1_claims, "2": figure2_claims,
           "3": figure3_claims, "4": figure4_claims}[fid]
    overview = overview_claims(fid, fig) if fid != "4" else []
    return overview + own(fig)
