/**
 * @file
 * Quickstart: the whole library in one page.
 *
 * Builds a small synthetic program by hand, profiles its branch
 * trace, extracts branch working sets, runs the branch allocator, and
 * compares the resulting compiler-indexed PAg predictor against the
 * conventional PC-indexed baseline and the interference-free
 * reference.
 *
 * Run:  ./quickstart [--json=<path>] [--quiet|--verbose]
 *
 * With --json the run also writes a bwsa.run_report.v1 document
 * (config echo, per-phase timings, metrics snapshot) -- the same
 * machinery the bench harnesses use.
 */

#include <cstdio>

#include "core/pipeline.hh"
#include "core/working_set.hh"
#include "obs/phase_tracer.hh"
#include "obs/run_report.hh"
#include "predict/factory.hh"
#include "report/table.hh"
#include "sim/batched_replay.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "workload/builder.hh"
#include "workload/executor.hh"

using namespace bwsa;

namespace
{

/**
 * A toy application: two alternating hot kernels (compress-like and
 * scan-like) driven from a main loop, plus a cold error path.
 */
Program
buildToyProgram()
{
    Program program;

    // Procedure bodies are built bottom-up; index 0 must be the entry,
    // so the callees get indices 1 and 2 below.
    StmtPtr main_body = seqOf(
        loopOf(200.0, 400,
               seqOf(callOf(1), compute(4), callOf(2), compute(2))));
    program.addProcedure("main", std::move(main_body));

    StmtPtr compress_kernel = seqOf(
        compute(6),
        loopOf(30.0, 100,
               seqOf(compute(3),
                     ifOf(BranchBehavior::biased(0.85), compute(4)),
                     ifOf(BranchBehavior::periodic(0b0101u, 4),
                          compute(2)),
                     ifOf(BranchBehavior::biased(0.999),
                          compute(8)))));
    program.addProcedure("compress_kernel", std::move(compress_kernel));

    StmtPtr scan_kernel = seqOf(
        compute(4),
        loopOf(20.0, 80,
               seqOf(ifElseOf(BranchBehavior::markov(0.92), compute(3),
                              compute(5)),
                     ifOf(BranchBehavior::dataHash(0x1234, 0.5),
                          compute(2)))),
        ifOf(BranchBehavior::biased(0.001), compute(40))); // error path
    program.addProcedure("scan_kernel", std::move(scan_kernel));

    program.finalize();
    return program;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli = CliOptions::parse(
        argc, argv, {"json", "quiet", "verbose"});
    std::vector<std::string> unknown =
        CliOptions::unknownFlags(argc, argv);
    if (!unknown.empty())
        bwsa_fatal("unknown option '", unknown[0],
                   "' (supported: --json --quiet --verbose)");
    applyLogLevelOptions(cli);

    std::string json_path = cli.getString("json", "");
    if (!json_path.empty()) {
        obs::PhaseTracer::global().setEnabled(true);
        obs::RunReport::global().begin("quickstart");
        obs::RunReport::global().setConfigValues(cli.values());
    }

    // --- 1. Build and execute the program, producing a branch trace.
    Program program = buildToyProgram();
    std::printf("program: %zu procedures, %zu static branches\n",
                program.procedureCount(), program.staticBranchCount());

    ExecutorConfig config;
    config.max_instructions = 500000;
    config.input_seed = 42;
    WorkloadTraceSource source(program, config);

    // --- 2. Profile: time-stamp interleave analysis -> conflict graph.
    // A ProfileSession makes the two passes explicit: statistics
    // (frequency selection), commit, then the interleave pass over
    // the selected branches.  addInterleaveSharded() would run the
    // second pass in parallel; this trace is small enough serially.
    PipelineConfig pipe_config;
    pipe_config.allocation.edge_threshold = 100;
    AllocationPipeline pipeline(pipe_config);
    {
        ProfileSession session(pipeline);
        session.addStats(source);
        session.commit();
        session.addInterleave(source);
        session.finish();
    }

    const ConflictGraph &graph = pipeline.graph();
    std::printf("profile: %zu branches, %zu conflict edges, %s dynamic"
                " branches\n",
                graph.nodeCount(), graph.edgeCount(),
                withCommas(graph.totalExecutions()).c_str());

    // --- 3. Working sets of the thresholded conflict graph.
    ConflictGraph pruned = graph.pruned(100);
    WorkingSetResult sets = findWorkingSets(
        pruned, WorkingSetDefinition::MaximalClique);
    WorkingSetStats ws_stats = computeWorkingSetStats(pruned, sets);
    std::printf("working sets: %zu sets, avg static size %.1f, avg "
                "dynamic size %.1f, max %zu\n",
                ws_stats.total_sets, ws_stats.avg_static_size,
                ws_stats.avg_dynamic_size, ws_stats.max_size);

    // --- 4. Branch allocation: how small can the BHT get?
    RequiredSizeResult req = pipeline.requiredSize(1024);
    if (req.achieved)
        std::printf("allocation: %llu BHT entries match a conventional "
                    "1024-entry table (baseline conflict %llu)\n",
                    static_cast<unsigned long long>(
                        req.required_entries),
                    static_cast<unsigned long long>(
                        req.baseline_conflict));

    // --- 5. Head-to-head predictor comparison on the same trace.
    std::vector<PredictionStats> results = replayBatched(
        source, {paperBaselineSpec(), interferenceFreeSpec(),
                 pipeline.predictorSpec(1024),
                 pipeline.predictorSpec(16)});

    TextTable table({"predictor", "mispredict %", "accuracy %"});
    for (const PredictionStats &r : results)
        table.addRow({r.predictor_name,
                      fixedString(r.mispredictPercent(), 3),
                      fixedString(r.accuracyPercent(), 3)});
    std::printf("\n%s", table.render().c_str());

    if (!json_path.empty()) {
        obs::RunReport::global().addTable(
            "quickstart predictor comparison", table.headers(),
            table.rows());
        obs::RunReport::global().write(json_path);
        std::printf("(json report written to %s)\n",
                    json_path.c_str());
    }
    return 0;
}
