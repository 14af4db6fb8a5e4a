#!/usr/bin/env python3
"""Validate a BWSA run report against the bwsa.run_report schemas.

Usage: check_report_schema.py <report.json> [<report.json> ...]

Accepts any schema version in ACCEPTED_SCHEMAS.  Checks the
structural invariants the bench harnesses promise (see DESIGN.md,
"Observability"): schema id, bench name, config echo, at least 5
distinct phase timings, at least 10 metric series, at least one
result table, and sane numeric fields.  v2 reports additionally
carry the "timeseries" and "interference" sections, whose entry
shapes are validated too.  v3 reports add the per-branch "branches"
section; its scope entries are checked structurally AND arithmetically
(per-branch execution/misprediction/victim counts must sum exactly to
the scope totals, and the totals must agree with the matching
"interference" entries), so CI catches any drift between the
per-branch producers and the aggregate counters.  v4 reports add the
"execution_phases" section (online phase detection); its per-phase
attribution is reconciled the same way: per-phase executions,
mispredictions, destructive events, births and deaths must sum
exactly to the scope totals, and the similarity/transition matrices
must be square, symmetric-with-unit-diagonal and row-stochastic
respectively.  Reports carrying the graph allocation-payoff table
(bench_graph_alloc) get its per-bin counters reconciled against the
"all" row, its derived percentage columns recomputed, and the
>= 3-populated-bins acceptance bar enforced.  Exits non-zero with a
message on the first violation, so CI can gate on it.

Only the standard library is used.
"""

import json
import sys

ACCEPTED_SCHEMAS = ("bwsa.run_report.v1", "bwsa.run_report.v2",
                    "bwsa.run_report.v3", "bwsa.run_report.v4")


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    sys.exit(1)


def expect(path, condition, message):
    if not condition:
        fail(path, message)


def check_phase(path, phase):
    expect(path, isinstance(phase, dict), "phase entry is not an object")
    for key in ("name", "count", "total_ms", "mean_ms", "min_ms",
                "max_ms", "work"):
        expect(path, key in phase, f"phase entry missing '{key}'")
    expect(path, isinstance(phase["name"], str) and phase["name"],
           "phase name must be a non-empty string")
    expect(path, phase["count"] >= 1,
           f"phase {phase['name']}: count must be >= 1")
    expect(path, phase["total_ms"] >= 0,
           f"phase {phase['name']}: negative total_ms")
    expect(path, phase["max_ms"] >= phase["min_ms"],
           f"phase {phase['name']}: max_ms < min_ms")


def check_metric(path, metric):
    expect(path, isinstance(metric, dict), "metric entry is not an object")
    for key in ("name", "kind"):
        expect(path, key in metric, f"metric entry missing '{key}'")
    kind = metric["kind"]
    expect(path, kind in ("counter", "gauge", "histogram"),
           f"metric {metric['name']}: unknown kind '{kind}'")
    if kind == "counter":
        expect(path, "value" in metric and metric["value"] >= 0,
               f"counter {metric['name']}: missing/negative value")
    elif kind == "gauge":
        expect(path, "value" in metric,
               f"gauge {metric['name']}: missing value")
    else:
        for key in ("count", "sum", "buckets"):
            expect(path, key in metric,
                   f"histogram {metric['name']}: missing '{key}'")


def check_sim_counters(path, metrics):
    """Reconcile the simulator counters (see src/sim/batched_replay.cc):
    sim.runs counts trace replays, sim.predictor_runs counts
    (predictor, replay) pairs, so every replay must account for at
    least one predictor run, and per-prediction counters (branches,
    mispredicts) aggregate across predictor runs."""
    counters = {m["name"]: m["value"] for m in metrics
                if m.get("kind") == "counter"}
    runs = counters.get("sim.runs", 0)
    if runs == 0:
        return
    expect(path, "sim.predictor_runs" in counters,
           "report has sim.runs but no sim.predictor_runs")
    predictor_runs = counters["sim.predictor_runs"]
    expect(path, predictor_runs >= runs,
           f"sim.predictor_runs {predictor_runs} < sim.runs {runs}: "
           "every trace replay drives at least one predictor")
    branches = counters.get("sim.branches", 0)
    mispredicts = counters.get("sim.mispredicts", 0)
    expect(path, mispredicts <= branches,
           f"sim.mispredicts {mispredicts} > sim.branches {branches}")


def check_table(path, table):
    expect(path, isinstance(table, dict), "table entry is not an object")
    for key in ("title", "columns", "rows"):
        expect(path, key in table, f"table entry missing '{key}'")
    width = len(table["columns"])
    expect(path, width >= 1, f"table {table['title']}: no columns")
    for row in table["rows"]:
        expect(path, len(row) == width,
               f"table {table['title']}: row width {len(row)} != "
               f"column count {width}")


GRAPH_PAYOFF_TITLE = "graph allocation payoff vs. predictability"
GRAPH_PAYOFF_COLUMNS = [
    "benchmark", "bin", "branches", "executed", "base miss",
    "base miss %", "alloc miss", "alloc miss %", "payoff %",
    "base victims", "alloc victims", "eliminated %"]


def parse_count(cell):
    return int(cell.replace(",", ""))


def check_graph_payoff_table(path, table):
    """Reconcile the graph allocation-payoff table (bench_graph_alloc):
    per-benchmark bin rows must sum exactly to the trailing "all" row
    for every counter column, the derived percentage columns must
    agree with the counters to rendering precision, and at least one
    benchmark must populate >= 3 predictability bins."""
    title = table["title"]
    expect(path, table["columns"] == GRAPH_PAYOFF_COLUMNS,
           f"table {title}: columns {table['columns']} != "
           f"{GRAPH_PAYOFF_COLUMNS}")

    groups = {}
    order = []
    for row in table["rows"]:
        benchmark = row[0]
        if benchmark not in groups:
            groups[benchmark] = []
            order.append(benchmark)
        groups[benchmark].append(row)

    expect(path, order, f"table {title}: no rows")
    best_populated = 0
    counters = (2, 3, 4, 6, 9, 10)  # the integer count columns
    for benchmark in order:
        rows = groups[benchmark]
        expect(path, rows[-1][1] == "all",
               f"table {title}: {benchmark} does not end with the "
               "'all' row")
        bins = rows[:-1]
        expect(path, len(bins) >= 2,
               f"table {title}: {benchmark} has fewer than 2 bin rows")
        all_row = rows[-1]
        for col in counters:
            total = sum(parse_count(r[col]) for r in bins)
            expect(path, total == parse_count(all_row[col]),
                   f"table {title}: {benchmark} column "
                   f"'{GRAPH_PAYOFF_COLUMNS[col]}' bins sum to "
                   f"{total}, 'all' row says {all_row[col]}")
        populated = sum(parse_count(r[3]) > 0 for r in bins)
        best_populated = max(best_populated, populated)
        for row in rows:
            label = f"{benchmark}/{row[1]}"
            executed = parse_count(row[3])
            base_miss = parse_count(row[4])
            alloc_miss = parse_count(row[6])
            base_victims = parse_count(row[9])
            alloc_victims = parse_count(row[10])
            expect(path, base_miss <= executed,
                   f"table {title}: {label} base miss > executed")
            expect(path, alloc_miss <= executed,
                   f"table {title}: {label} alloc miss > executed")

            def reconcile(name, rendered, num, den, tolerance):
                want = 100.0 * num / den if den else 0.0
                expect(path, abs(float(rendered) - want) <= tolerance,
                       f"table {title}: {label} {name} is {rendered}, "
                       f"counters give {want:.4f}")

            reconcile("base miss %", row[5], base_miss, executed,
                      0.002)
            reconcile("alloc miss %", row[7], alloc_miss, executed,
                      0.002)
            reconcile("payoff %", row[8], base_miss - alloc_miss,
                      base_miss, 0.02)
            reconcile("eliminated %", row[11],
                      base_victims - alloc_victims, base_victims, 0.11)
    expect(path, best_populated >= 3,
           f"table {title}: no benchmark populates >= 3 "
           f"predictability bins (best: {best_populated})")


def check_series(path, series):
    expect(path, isinstance(series, dict),
           "timeseries entry is not an object")
    for key in ("name", "window", "downsamples", "points"):
        expect(path, key in series, f"timeseries entry missing '{key}'")
    expect(path, isinstance(series["name"], str) and series["name"],
           "timeseries name must be a non-empty string")
    expect(path, series["window"] >= 1,
           f"series {series['name']}: window must be >= 1")
    prev_start = -1
    for point in series["points"]:
        expect(path, isinstance(point, list) and len(point) == 5,
               f"series {series['name']}: point is not "
               "[start, weight, mean, min, max]")
        start, weight, _, lo, hi = point
        expect(path, start > prev_start,
               f"series {series['name']}: window starts not ascending")
        expect(path, start % series["window"] == 0,
               f"series {series['name']}: start {start} not aligned "
               f"to window {series['window']}")
        expect(path, weight >= 1,
               f"series {series['name']}: empty window exported")
        expect(path, hi >= lo,
               f"series {series['name']}: max < min")
        prev_start = start


def check_interference(path, entry):
    expect(path, isinstance(entry, dict),
           "interference entry is not an object")
    for key in ("scope", "predictor", "predictions", "agree",
                "neutral", "constructive", "destructive",
                "destructive_percent", "shadowed_branches",
                "top_entries"):
        expect(path, key in entry,
               f"interference entry missing '{key}'")
    label = f"{entry['scope']}/{entry['predictor']}"
    classified = (entry["agree"] + entry["neutral"] +
                  entry["constructive"] + entry["destructive"])
    expect(path, classified == entry["predictions"],
           f"interference {label}: classes sum to {classified}, "
           f"not predictions {entry['predictions']}")
    expect(path, 0 <= entry["destructive_percent"] <= 100,
           f"interference {label}: destructive_percent out of range")
    for conflict in entry["top_entries"]:
        for key in ("entry", "owner_switches", "destructive",
                    "branches"):
            expect(path, key in conflict,
                   f"interference {label}: top entry missing '{key}'")
        expect(path, conflict["branches"] >= 2,
               f"interference {label}: conflict entry with < 2 "
               "branches")
    # v3 probes also rank per-branch victims; older reports omit it.
    for victim in entry.get("top_victims", ()):
        for key in ("pc", "victim", "aggressor"):
            expect(path, key in victim,
                   f"interference {label}: top victim missing '{key}'")
        expect(path, victim["victim"] <= entry["destructive"],
               f"interference {label}: victim count exceeds the "
               "destructive total")


def check_branch_entry(path, label, branch, predictors):
    for key in ("pc", "sim_executed", "mispredicts", "profiled"):
        expect(path, key in branch,
               f"branches {label}: branch entry missing '{key}'")
    pc = branch["pc"]
    expect(path, set(branch["mispredicts"]) == predictors,
           f"branches {label}: branch {pc:#x} predictor set "
           f"{sorted(branch['mispredicts'])} != scope totals "
           f"{sorted(predictors)}")
    for name, count in branch["mispredicts"].items():
        expect(path, 0 <= count <= branch["sim_executed"],
               f"branches {label}: branch {pc:#x} {name} mispredicts "
               f"{count} exceed executions {branch['sim_executed']}")
    for name, aliasing in branch.get("aliasing", {}).items():
        for key in ("victim", "aggressor"):
            expect(path, key in aliasing,
                   f"branches {label}: branch {pc:#x} aliasing for "
                   f"{name} missing '{key}'")
    if not branch["profiled"]:
        return
    for key in ("executed", "taken", "transitions", "taken_rate",
                "transition_rate", "entropy_bits", "birth", "death",
                "residency"):
        expect(path, key in branch,
               f"branches {label}: profiled branch {pc:#x} missing "
               f"'{key}'")
    expect(path, branch["taken"] <= branch["executed"],
           f"branches {label}: branch {pc:#x} taken > executed")
    expect(path, branch["transitions"] < max(branch["executed"], 1),
           f"branches {label}: branch {pc:#x} transitions must be < "
           "executions")
    for key in ("taken_rate", "transition_rate", "residency"):
        expect(path, 0.0 <= branch[key] <= 1.0,
               f"branches {label}: branch {pc:#x} {key} out of [0,1]")
    expect(path, branch["entropy_bits"] >= 0.0,
           f"branches {label}: branch {pc:#x} negative entropy")
    expect(path, branch["birth"] <= branch["death"],
           f"branches {label}: branch {pc:#x} birth after death")


def check_branches_scope(path, entry, interference):
    expect(path, isinstance(entry, dict),
           "branches entry is not an object")
    for key in ("scope", "entropy_order", "profiled_branches",
                "totals", "branches"):
        expect(path, key in entry, f"branches entry missing '{key}'")
    label = entry["scope"]
    totals = entry["totals"]
    for key in ("sim_branches", "first_timestamp", "last_timestamp",
                "mispredicts", "destructive"):
        expect(path, key in totals,
               f"branches {label}: totals missing '{key}'")
    expect(path, entry["entropy_order"] >= 1,
           f"branches {label}: entropy_order must be >= 1")
    predictors = set(totals["mispredicts"])
    expect(path, len(predictors) >= 1,
           f"branches {label}: no predictors in totals")

    branches = entry["branches"]
    profiled = 0
    prev_pc = -1
    sum_executed = 0
    sum_miss = {name: 0 for name in predictors}
    sum_victim = {name: 0 for name in totals["destructive"]}
    sum_aggressor = {name: 0 for name in totals["destructive"]}
    for branch in branches:
        check_branch_entry(path, label, branch, predictors)
        expect(path, branch["pc"] > prev_pc,
               f"branches {label}: pcs not strictly ascending at "
               f"{branch['pc']:#x}")
        prev_pc = branch["pc"]
        profiled += bool(branch["profiled"])
        sum_executed += branch["sim_executed"]
        for name, count in branch["mispredicts"].items():
            sum_miss[name] += count
        for name, aliasing in branch.get("aliasing", {}).items():
            expect(path, name in sum_victim,
                   f"branches {label}: aliasing predictor '{name}' "
                   "not in totals.destructive")
            sum_victim[name] += aliasing["victim"]
            sum_aggressor[name] += aliasing["aggressor"]

    # Reconciliation: the per-branch maps must sum exactly to the
    # aggregates -- no event may be lost or double-counted.
    expect(path, profiled == entry["profiled_branches"],
           f"branches {label}: {profiled} profiled branches, header "
           f"says {entry['profiled_branches']}")
    expect(path, sum_executed == totals["sim_branches"],
           f"branches {label}: per-branch executions sum to "
           f"{sum_executed}, totals say {totals['sim_branches']}")
    for name in predictors:
        expect(path, sum_miss[name] == totals["mispredicts"][name],
               f"branches {label}: {name} per-branch mispredictions "
               f"sum to {sum_miss[name]}, totals say "
               f"{totals['mispredicts'][name]}")
    for name, destructive in totals["destructive"].items():
        expect(path, sum_victim[name] == destructive,
               f"branches {label}: {name} victim counts sum to "
               f"{sum_victim[name]}, destructive total is "
               f"{destructive}")
        expect(path, sum_aggressor[name] == destructive,
               f"branches {label}: {name} aggressor counts sum to "
               f"{sum_aggressor[name]}, destructive total is "
               f"{destructive}")

    # Cross-check against the probe's own section when present.
    for probe in interference:
        if (probe["scope"] == label and
                probe["predictor"] in totals["destructive"]):
            expect(path,
                   totals["destructive"][probe["predictor"]] ==
                   probe["destructive"],
               f"branches {label}: destructive total for "
               f"{probe['predictor']} disagrees with the "
               "interference section")


def check_phase_entry(path, label, index, phase, interval, predictors,
                      probed):
    for key in ("index", "start_ts", "end_ts", "first_window",
                "window_count", "boundary_similarity", "working_set",
                "born", "died", "executed", "lanes"):
        expect(path, key in phase,
               f"execution_phases {label}: phase missing '{key}'")
    expect(path, phase["index"] == index,
           f"execution_phases {label}: phase index {phase['index']} "
           f"at position {index}")
    expect(path, phase["start_ts"] % interval == 0,
           f"execution_phases {label}: phase {index} start_ts not "
           f"aligned to interval {interval}")
    expect(path, phase["end_ts"] > phase["start_ts"],
           f"execution_phases {label}: phase {index} end_ts <= "
           "start_ts")
    expect(path, phase["window_count"] >= 1,
           f"execution_phases {label}: phase {index} has no windows")
    expect(path, 0.0 <= phase["boundary_similarity"] <= 1.0,
           f"execution_phases {label}: phase {index} "
           "boundary_similarity out of [0,1]")
    expect(path, phase["born"] <= phase["working_set"],
           f"execution_phases {label}: phase {index} born exceeds "
           "working set")
    expect(path, phase["died"] <= phase["working_set"],
           f"execution_phases {label}: phase {index} died exceeds "
           "working set")
    expect(path, set(phase["lanes"]) == predictors,
           f"execution_phases {label}: phase {index} lane set "
           f"{sorted(phase['lanes'])} != totals "
           f"{sorted(predictors)}")
    for name, lane in phase["lanes"].items():
        expect(path, lane["executed"] == phase["executed"],
               f"execution_phases {label}: phase {index} lane {name} "
               f"executed {lane['executed']} != phase executions "
               f"{phase['executed']} (every lane replays every "
               "branch)")
        expect(path, lane["mispredicted"] <= lane["executed"],
               f"execution_phases {label}: phase {index} lane {name} "
               "mispredicted > executed")
        expect(path, ("destructive" in lane) == (name in probed),
               f"execution_phases {label}: phase {index} lane {name} "
               "destructive presence disagrees with "
               "totals.destructive")


def check_matrix(path, label, name, matrix, n, row_stochastic):
    expect(path, len(matrix) == n,
           f"execution_phases {label}: {name} is not {n}x{n}")
    for i, row in enumerate(matrix):
        expect(path, len(row) == n,
               f"execution_phases {label}: {name} row {i} width "
               f"{len(row)} != {n}")
        for j, value in enumerate(row):
            expect(path, 0.0 <= value <= 1.0 + 1e-9,
                   f"execution_phases {label}: {name}[{i}][{j}] out "
                   "of [0,1]")
        if row_stochastic:
            expect(path, abs(sum(row) - 1.0) < 1e-6,
                   f"execution_phases {label}: {name} row {i} sums "
                   f"to {sum(row)}, not 1")
        else:
            expect(path, abs(matrix[i][i] - 1.0) < 1e-12,
                   f"execution_phases {label}: {name} diagonal "
                   f"[{i}][{i}] is {matrix[i][i]}, not 1")
            for j in range(n):
                expect(path, abs(row[j] - matrix[j][i]) < 1e-9,
                       f"execution_phases {label}: {name} not "
                       f"symmetric at [{i}][{j}]")


def check_execution_phases(path, entry):
    expect(path, isinstance(entry, dict),
           "execution_phases entry is not an object")
    for key in ("scope", "interval", "config", "totals", "phases",
                "similarity_matrix", "transition_matrix"):
        expect(path, key in entry,
               f"execution_phases entry missing '{key}'")
    label = entry["scope"]
    expect(path, entry["interval"] >= 1,
           f"execution_phases {label}: interval must be >= 1")
    for key in ("threshold", "hysteresis", "min_windows"):
        expect(path, key in entry["config"],
               f"execution_phases {label}: config missing '{key}'")

    totals = entry["totals"]
    for key in ("executed", "phases", "windows", "distinct_pcs",
                "mispredicts", "destructive"):
        expect(path, key in totals,
               f"execution_phases {label}: totals missing '{key}'")
    predictors = set(totals["mispredicts"])
    probed = set(totals["destructive"])
    expect(path, probed <= predictors,
           f"execution_phases {label}: probed lanes not a subset of "
           "predictor lanes")

    phases = entry["phases"]
    expect(path, len(phases) == totals["phases"],
           f"execution_phases {label}: {len(phases)} phase entries, "
           f"totals say {totals['phases']}")
    expect(path, len(phases) >= 1,
           f"execution_phases {label}: no phases")

    next_window = 0
    prev_end = 0
    sums = {"executed": 0, "born": 0, "died": 0, "windows": 0}
    sum_miss = {name: 0 for name in predictors}
    sum_destructive = {name: 0 for name in probed}
    for index, phase in enumerate(phases):
        check_phase_entry(path, label, index, phase,
                          entry["interval"], predictors, probed)
        expect(path, phase["first_window"] == next_window,
               f"execution_phases {label}: phase {index} "
               f"first_window {phase['first_window']}, expected "
               f"{next_window} (phases must tile the windows)")
        next_window += phase["window_count"]
        expect(path, phase["start_ts"] >= prev_end,
               f"execution_phases {label}: phase {index} overlaps "
               "its predecessor")
        prev_end = phase["end_ts"]
        sums["executed"] += phase["executed"]
        sums["born"] += phase["born"]
        sums["died"] += phase["died"]
        sums["windows"] += phase["window_count"]
        for name, lane in phase["lanes"].items():
            sum_miss[name] += lane["mispredicted"]
            if name in probed:
                sum_destructive[name] += lane["destructive"]

    # Reconciliation: phase attribution must partition the run --
    # every execution, misprediction, destructive event, birth and
    # death lands in exactly one phase.
    expect(path, sums["executed"] == totals["executed"],
           f"execution_phases {label}: per-phase executions sum to "
           f"{sums['executed']}, totals say {totals['executed']}")
    expect(path, sums["windows"] == totals["windows"],
           f"execution_phases {label}: per-phase windows sum to "
           f"{sums['windows']}, totals say {totals['windows']}")
    for key in ("born", "died"):
        expect(path, sums[key] == totals["distinct_pcs"],
               f"execution_phases {label}: per-phase {key} sum to "
               f"{sums[key]}, distinct_pcs is "
               f"{totals['distinct_pcs']} (every pc is {key[:-1]}"
               "exactly once)")
    for name in predictors:
        expect(path, sum_miss[name] == totals["mispredicts"][name],
               f"execution_phases {label}: {name} per-phase "
               f"mispredictions sum to {sum_miss[name]}, totals say "
               f"{totals['mispredicts'][name]}")
    for name in probed:
        expect(path,
               sum_destructive[name] == totals["destructive"][name],
               f"execution_phases {label}: {name} per-phase "
               f"destructive events sum to {sum_destructive[name]}, "
               f"totals say {totals['destructive'][name]}")

    n = len(phases)
    check_matrix(path, label, "similarity_matrix",
                 entry["similarity_matrix"], n, row_stochastic=False)
    check_matrix(path, label, "transition_matrix",
                 entry["transition_matrix"], n, row_stochastic=True)


def check_report(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)

    schema = doc.get("schema")
    expect(path, schema in ACCEPTED_SCHEMAS,
           f"bad schema id: {schema!r} (accepted: "
           f"{', '.join(ACCEPTED_SCHEMAS)})")
    expect(path, isinstance(doc.get("bench"), str) and doc["bench"],
           "missing bench name")
    expect(path, doc.get("started_unix_ms", 0) > 0,
           "missing started_unix_ms")
    expect(path, doc.get("wall_seconds", -1) >= 0,
           "missing/negative wall_seconds")

    config = doc.get("config")
    expect(path, isinstance(config, dict) and len(config) >= 1,
           "config echo must have at least one key")

    phases = doc.get("phases")
    expect(path, isinstance(phases, list), "missing phases list")
    for phase in phases:
        check_phase(path, phase)
    names = {phase["name"] for phase in phases}
    expect(path, len(names) >= 5,
           f"expected >= 5 distinct phases, got {len(names)}: "
           f"{sorted(names)}")

    expect(path, doc.get("dropped_spans", -1) >= 0,
           "missing dropped_spans")

    metrics = doc.get("metrics")
    expect(path, isinstance(metrics, list), "missing metrics list")
    for metric in metrics:
        check_metric(path, metric)
    series = {metric["name"] for metric in metrics}
    expect(path, len(series) >= 10,
           f"expected >= 10 metric series, got {len(series)}: "
           f"{sorted(series)}")
    check_sim_counters(path, metrics)

    tables = doc.get("tables")
    expect(path, isinstance(tables, list) and len(tables) >= 1,
           "expected at least one result table")
    for table in tables:
        check_table(path, table)
        if table["title"] == GRAPH_PAYOFF_TITLE:
            check_graph_payoff_table(path, table)

    version = int(schema.rsplit(".v", 1)[1])
    extras = ""
    if version >= 2:
        timeseries = doc.get("timeseries")
        expect(path, isinstance(timeseries, list),
               f"{schema} report missing timeseries list")
        for entry in timeseries:
            check_series(path, entry)
        interference = doc.get("interference")
        expect(path, isinstance(interference, list),
               f"{schema} report missing interference list")
        for entry in interference:
            check_interference(path, entry)
        extras = (f", {len(timeseries)} timeseries, "
                  f"{len(interference)} interference entries")
    if version >= 3:
        branches = doc.get("branches")
        expect(path, isinstance(branches, list),
               f"{schema} report missing branches list")
        for entry in branches:
            check_branches_scope(path, entry, doc["interference"])
        scopes = {entry["scope"] for entry in branches}
        expect(path, len(scopes) == len(branches),
               "duplicate telemetry scopes in branches list")
        extras += f", {len(branches)} telemetry scopes"
    if version >= 4:
        execution_phases = doc.get("execution_phases")
        expect(path, isinstance(execution_phases, list),
               f"{schema} report missing execution_phases list")
        for entry in execution_phases:
            check_execution_phases(path, entry)
        scopes = {entry["scope"] for entry in execution_phases}
        expect(path, len(scopes) == len(execution_phases),
               "duplicate scopes in execution_phases list")
        extras += (f", {len(execution_phases)} execution-phase "
                   "scopes")

    print(f"{path}: OK ({len(names)} phases, {len(series)} series, "
          f"{len(tables)} tables{extras})")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        check_report(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
